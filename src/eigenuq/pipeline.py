"""End-to-end orchestration: baseline runs, forest training, forward UQ,
frozen-stress propagation, and report aggregation.

Every command writes its outputs plus a single ``manifest.json`` into the
output directory; reruns with an identical manifest produce byte-identical
CSVs. Configuration comes from an INI file; command-line flags win over
file values.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, channel, dns, forest, tensors
from .forest import ForestFormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DATA = 4

# eigenvalue slack, relative to the trace, of a realizable written stress
_REALIZABILITY_TOL = 1e-8


class ConfigError(ValueError):
    """Invalid configuration value or missing required setting."""


class DataError(ValueError):
    """Missing or malformed input data."""


# ---------------------------------------------------------------------------
# configuration


DEFAULTS = {
    "channel": {
        "re_tau": "1000",
        "n_cells": "192",
        "stretch": "0.5",
        "max_iters": "40000",
        "residual_tol": "1e-8",
    },
    "train": {
        "train_re_tau": "180, 550, 2000, 5200",
        "holdout_re_tau": "1000",
        "seed": "0",
    },
    "uq": {
        "mode": "datafree",
        "delta_b": "1.0",
    },
    "propagate": {
        "noise": "0.0",
        "noise_seed": "0",
    },
}


@dataclass
class Settings:
    """Fully resolved configuration (file defaults + flag overrides)."""

    channel: dict
    train: dict
    uq: dict
    propagate: dict
    data: dict  # re_tau (as str) -> profile path or "synthetic"


def load_settings(config_path=None, overrides=None) -> Settings:
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    if config_path is not None:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        try:
            parser.read(config_path)
        except configparser.Error as e:
            raise ConfigError(f"malformed config file {config_path}: {e}") from e
    for section, key, value in overrides or []:
        if value is None:
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(value))
    for section in parser.sections():
        if section == "data":
            continue  # keys are Re_tau values
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = sorted(set(parser[section]) - set(DEFAULTS[section]))
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")
    data = dict(parser.items("data")) if parser.has_section("data") else {}
    return Settings(
        channel=dict(parser.items("channel")),
        train=dict(parser.items("train")),
        uq=dict(parser.items("uq")),
        propagate=dict(parser.items("propagate")),
        data=data,
    )


def _get(section: dict, key: str, cast, what: str):
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"missing setting {what}.{key}")
    try:
        return cast(raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid value for {what}.{key}: {raw!r}") from e


def build_channel_config(settings: Settings, re_tau=None) -> channel.ChannelConfig:
    ch = settings.channel
    try:
        return channel.ChannelConfig(
            re_tau=float(re_tau) if re_tau is not None else _get(ch, "re_tau", float, "channel"),
            n_cells=_get(ch, "n_cells", int, "channel"),
            stretch=_get(ch, "stretch", float, "channel"),
            max_iters=_get(ch, "max_iters", int, "channel"),
            residual_tol=_get(ch, "residual_tol", float, "channel"),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _re_tau_list(raw: str):
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as e:
        raise ConfigError(f"invalid Re_tau list: {raw!r}") from e


def load_reference_profile(settings: Settings, re_tau: float) -> dns.DnsProfile:
    """Reference profile for one Re_tau from the [data] section; the
    keyword ``synthetic`` (also the default) builds the bundled
    self-consistent synthetic profile."""
    source = settings.data.get(f"{re_tau:g}", "synthetic")
    if source == "synthetic":
        return dns.synthetic_profile(re_tau)
    return read_reference_profile(source, re_tau)


def read_reference_profile(path, re_tau: float) -> dns.DnsProfile:
    """A profile file that is well formed and covers the half channel at
    ``re_tau``; DataError (exit 4) otherwise."""
    if not os.path.exists(path):
        raise DataError(f"reference profile for Re_tau={re_tau:g} not found: {path}")
    try:
        profile = dns.load_profile(path, re_tau=re_tau)
        dns.check_coverage(profile, re_tau)
    except dns.ProfileParseError as e:
        raise DataError(str(e)) from e
    return profile


# ---------------------------------------------------------------------------
# manifest plumbing


def write_manifest(out_dir, command, settings: Settings, extra=None, sections=None) -> None:
    """``sections``: the settings sections to record, all by default."""
    recorded = {k: v for k, v in asdict(settings).items() if sections is None or k in sections}
    doc = {"tool_version": __version__, "command": command, "settings": recorded}
    doc.update(extra or {})
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_manifest(run_dir) -> dict:
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        raise DataError(f"no manifest.json in {run_dir}")
    with open(path) as f:
        return json.load(f)


def _ensure_out(out_dir):
    # commands call this after their checks and solves: a rejected run leaves nothing
    os.makedirs(out_dir, exist_ok=True)


def _write_rows(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_trace_csv(state: channel.ChannelState, path) -> None:
    xy, w = channel.barycentric_trace(state)
    np.savetxt(path, np.column_stack([state.y_plus, xy, w]), fmt="%.17g",
               delimiter=",", comments="", header="y_plus,x,y,C1,C2,C3")


def count_realizability_violations(state: channel.ChannelState) -> int:
    return int(np.count_nonzero(~tensors.is_realizable(state.tau, tol=_REALIZABILITY_TOL)))


# ---------------------------------------------------------------------------
# commands


def cmd_baseline(settings: Settings, out_dir) -> int:
    cfg = build_channel_config(settings)
    state = channel.solve_baseline(cfg)
    _ensure_out(out_dir)
    channel.write_solution_csv(state, os.path.join(out_dir, "baseline.csv"))
    write_trace_csv(state, os.path.join(out_dir, "baseline_trace.csv"))
    write_manifest(
        out_dir,
        "baseline",
        settings,
        {
            "iterations": state.iterations,
            "centerline_U": state.centerline_U,
            "total_shear_error": channel.total_shear_error(state),
            "realizability_violations": count_realizability_violations(state),
        },
    )
    return EXIT_OK


def train_forest(settings: Settings, target_kind: str):
    """Train one forest per the dataset config; returns
    (forest, metrics dict)."""
    if target_kind not in dns.TARGET_NAMES:
        raise ConfigError(
            f"unknown target {target_kind!r}; choose from {tuple(dns.TARGET_NAMES)}"
        )
    train_re = _re_tau_list(settings.train["train_re_tau"])
    holdout_re = _get(settings.train, "holdout_re_tau", float, "train")
    seed = _get(settings.train, "seed", int, "train")
    if not train_re:
        raise ConfigError("train.train_re_tau is empty")

    def targets_at(re_tau):
        state = channel.solve_baseline(build_channel_config(settings, re_tau=re_tau))
        profile = dns.interpolate(load_reference_profile(settings, re_tau), state.y_plus)
        return dns.build_targets(state, profile, target_kind)

    training = targets_at(train_re[0])
    for re_tau in train_re[1:]:
        training.extend(targets_at(re_tau))

    hp = replace(forest.HYPERPARAMS[target_kind], seed=seed)
    fitted = forest.fit(
        training.X,
        training.Y,
        hp,
        feature_names=training.feature_names,
        target_names=training.target_names,
    )

    held = targets_at(holdout_re)
    metrics = {
        "target_kind": target_kind,
        "n_train_rows": int(training.X.shape[0]),
        "n_excluded": int(training.n_excluded),
        "train_mse": forest.mse(fitted, training.X, training.Y),
        "holdout_re_tau": holdout_re,
        "holdout_mse": forest.mse(fitted, held.X, held.Y),
        "holdout_mean_predictor_mse": float(
            np.mean((training.Y.mean(axis=0) - held.Y) ** 2)
        ),
        "hyperparams": asdict(hp),
    }
    return fitted, metrics


def cmd_train(settings: Settings, out_dir, target_kind: str) -> int:
    fitted, metrics = train_forest(settings, target_kind)
    _ensure_out(out_dir)
    forest.save(fitted, os.path.join(out_dir, f"forest_{target_kind}.json"))
    # every metric but the hyperparameters, which only the manifest records
    columns = [key for key in metrics if key != "hyperparams"]
    _write_rows(
        os.path.join(out_dir, "metrics.csv"), columns, [[metrics[key] for key in columns]]
    )
    write_manifest(out_dir, "train", settings, {"metrics": metrics})
    return EXIT_OK


def _load_forest(path):
    if path is None:
        raise ConfigError("data-driven uq mode needs --forest")
    if not os.path.exists(path):
        raise DataError(f"forest file not found: {path}")
    try:
        return forest.load(path)
    except ForestFormatError as e:
        raise DataError(str(e)) from e


def run_uq(settings: Settings, mode: str, forest_path=None, delta_b=None):
    """Check the mode's arguments, then solve its envelope. A mode
    rejects a ``forest_path`` or ``delta_b`` (command-line values) it
    does not take; without ``delta_b`` it reads ``uq.delta_b``."""
    cfg = build_channel_config(settings)
    takes = channel.PerturbationInjection.TAKES.get(mode)
    if takes is None:
        raise ConfigError(f"unknown uq mode {mode!r}")
    if forest_path is not None and "forest" not in takes:
        raise ConfigError(f"uq mode {mode!r} does not take --forest")
    if delta_b is not None and "delta_b" not in takes:
        raise ConfigError(f"uq mode {mode!r} does not take --delta-b")
    if delta_b is None and "delta_b" in takes:
        delta_b = _get(settings.uq, "delta_b", float, "uq")
    fitted = _load_forest(forest_path) if "forest" in takes else None
    try:
        injections = channel.corner_injections(mode, delta_b=delta_b, forest=fitted)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return channel.uq_envelope(cfg, injections)


def cmd_uq(settings: Settings, out_dir, forest_path=None, delta_b=None) -> int:
    mode = _get(settings.uq, "mode", str, "uq")
    env = run_uq(settings, mode, forest_path, delta_b)
    # the manifest records only the settings this mode ran with: [channel]
    # and the [uq] keys it takes
    takes = channel.PerturbationInjection.TAKES[mode]
    ran = replace(settings, uq={k: v for k, v in settings.uq.items() if k == "mode" or k in takes})
    _ensure_out(out_dir)
    channel.write_solution_csv(env.baseline, os.path.join(out_dir, "baseline.csv"))
    for corner, st in env.corner_states.items():
        channel.write_solution_csv(
            st, os.path.join(out_dir, f"corner_{corner}.csv")
        )
        write_trace_csv(st, os.path.join(out_dir, f"trace_{corner}.csv"))
    _write_rows(
        os.path.join(out_dir, "envelope.csv"),
        ["y_plus", "U_baseline", "U_min", "U_max", "width"],
        [
            [y, ub, lo, hi, w]
            for y, ub, lo, hi, w in zip(
                env.baseline.y_plus, env.baseline.U_plus, env.U_min, env.U_max, env.width
            )
        ],
    )
    violations = count_realizability_violations(env.baseline) + sum(
        count_realizability_violations(s) for s in env.corner_states.values()
    )
    extra = {
        "mode": mode,
        "integrated_width": env.integrated_width(),
        "realizability_violations": violations,
        "iterations": {c: s.iterations for c, s in env.corner_states.items()},
        "frozen_at": {c: s.frozen_at for c, s in env.corner_states.items()},
        "total_shear_error": {
            c: channel.total_shear_error(s) for c, s in env.corner_states.items()
        },
    }
    if forest_path is not None:
        # the base name: the same forest read from another directory
        # gives the same manifest
        with open(forest_path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        extra["forest"] = {"file": os.path.basename(forest_path), "sha256": digest}
    write_manifest(out_dir, "uq", ran, extra, sections=("channel", "uq"))
    return EXIT_OK


def cmd_propagate_dns(settings: Settings, out_dir, dns_path=None) -> int:
    cfg = build_channel_config(settings)
    noise = _get(settings.propagate, "noise", float, "propagate")
    seed = _get(settings.propagate, "noise_seed", int, "propagate")
    if dns_path is not None:
        profile = read_reference_profile(dns_path, cfg.re_tau)
    else:
        profile = load_reference_profile(settings, cfg.re_tau)
    try:
        injection = channel.FrozenStressInjection(
            profile=profile, noise_amplitude=noise, noise_seed=seed
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    state = channel.solve_with_injection(cfg, injection)
    ref = dns.interpolate(profile, state.y_plus)
    num = np.linalg.norm(state.U_plus - ref.U_plus)
    den = np.linalg.norm(ref.U_plus)
    rel_l2 = float(num / den) if den > 0 else float("nan")
    _ensure_out(out_dir)
    channel.write_solution_csv(state, os.path.join(out_dir, "propagated.csv"))
    _write_rows(
        os.path.join(out_dir, "metrics.csv"),
        ["re_tau", "noise", "noise_seed", "rel_l2_error_U", "iterations"],
        [[cfg.re_tau, noise, seed, rel_l2, state.iterations]],
    )
    write_manifest(
        out_dir,
        "propagate-dns",
        settings,
        {
            "noise": noise,
            "noise_seed": seed,
            "rel_l2_error_U": rel_l2,
            "iterations": state.iterations,
            "total_shear_error": channel.total_shear_error(state),
            "realizability_violations": count_realizability_violations(state),
        },
    )
    return EXIT_OK


def cmd_report(run_dirs, out_dir) -> int:
    """Aggregate one or more completed run directories into summary.csv."""
    rows = []
    uq_runs = {"datafree": [], "data-driven": []}  # kind -> [(run, width)]
    for run_dir in run_dirs:
        man = read_manifest(run_dir)
        name = os.path.basename(os.path.normpath(run_dir))
        cmdname = man.get("command", "")
        width = man.get("integrated_width", np.nan)
        if cmdname == "uq":
            kind = "datafree" if man.get("mode") == "datafree" else "data-driven"
            uq_runs[kind].append((name, width))
        rows.append(
            [
                name,
                cmdname,
                man.get("mode", ""),
                man.get("settings", {}).get("channel", {}).get("re_tau", ""),
                width,
                man.get("rel_l2_error_U", np.nan),
                man.get("realizability_violations", np.nan),
                json.dumps(man.get("iterations", ""), sort_keys=True).replace(",", ";"),
            ]
        )
    for kind, runs in uq_runs.items():
        if len(runs) > 1:
            raise DataError(
                f"ambiguous report input: {len(runs)} {kind} uq runs "
                f"({', '.join(name for name, _ in runs)}); pass at most one"
            )
    header = [
        "run",
        "command",
        "mode",
        "re_tau",
        "integrated_width",
        "rel_l2_error_U",
        "realizability_violations",
        "iterations",
    ]
    if uq_runs["datafree"] and uq_runs["data-driven"]:
        datafree = uq_runs["datafree"][0][1]
        datadriven = uq_runs["data-driven"][0][1]
        header.append("width_ratio_datafree_over_datadriven")
        ratio = datafree / datadriven if datadriven > 0 else np.nan
        rows = [row + [ratio] for row in rows]
    _ensure_out(out_dir)
    _write_rows(os.path.join(out_dir, "summary.csv"), header, rows)
    write_manifest(
        out_dir,
        "report",
        Settings({}, {}, {}, {}, {}),
        {"runs": [os.path.basename(os.path.normpath(d)) for d in run_dirs]},
    )
    return EXIT_OK
