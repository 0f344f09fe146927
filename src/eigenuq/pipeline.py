"""End-to-end orchestration: baseline runs, forest training, forward UQ,
prescribed-stress propagation, and report aggregation.

Every command writes its outputs plus a single ``manifest.json`` into the
output directory; reruns with an identical manifest produce byte-identical
CSVs. Configuration comes from an INI file; command-line flags win over
file values.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, channel, dns, features, forest, tensors
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


def _read(path, error, what, not_found=None):
    """The bytes of the input file ``path`` (a ``what``), read once, and
    their UTF-8 text. ``error`` (ConfigError or DataError) says
    ``not_found`` (by default "<what> not found: <path>") if there is no
    such file, and why not if it cannot be read (a directory, no
    permission) or is not UTF-8."""
    try:
        with open(path, "rb") as f:
            document = f.read()
    except FileNotFoundError:
        raise error(not_found or f"{what} not found: {path}") from None
    except OSError as e:
        raise error(f"unreadable {what} {path}: {e.strerror or e}") from e
    try:
        return document, document.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"unreadable {what} {path}: {e}") from e


# ---------------------------------------------------------------------------
# configuration


def _re_tau_list(raw: str):
    return [float(tok) for tok in raw.replace(",", " ").split()]


# every settings key with its default and the cast its value must pass
DEFAULTS = {
    "channel": {
        "re_tau": ("1000", float),
        "n_cells": ("192", int),
        "stretch": ("0.5", float),
        "max_iters": ("40000", int),
    },
    "train": {
        "train_re_tau": ("180, 550, 2000, 5200", _re_tau_list),
        "holdout_re_tau": ("1000", float),
        "seed": ("0", int),
    },
    "uq": {
        "mode": ("datafree", str),
        "delta_b": ("1.0", float),
    },
    "propagate": {
        "noise": ("0.0", float),
        "noise_seed": ("0", int),
    },
}


@dataclass
class Settings:
    """Fully resolved configuration (file defaults + flag overrides)."""

    channel: dict
    train: dict
    uq: dict
    propagate: dict
    data: dict  # re_tau -> profile path or "synthetic"


def load_settings(config_path=None, overrides=None) -> Settings:
    parser = configparser.ConfigParser()
    parser.read_dict({section: {key: default for key, (default, _) in keys.items()}
                      for section, keys in DEFAULTS.items()})
    if config_path is not None:
        _, text = _read(config_path, ConfigError, "config file")
        try:
            parser.read_file(io.StringIO(text, newline=None), os.fspath(config_path))
        except configparser.Error as e:
            # configparser puts the file, line number and line on lines of their own
            message = " ".join(line.strip() for line in str(e).splitlines())
            raise ConfigError(f"malformed config file {config_path}: {message}") from e
    for section, key, value in overrides or []:
        if value is not None:
            parser.set(section, key, str(value))
    for section in parser.sections():
        if section == "data":
            continue  # keys are Re_tau values
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = sorted(set(parser[section]) - set(DEFAULTS[section]))
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")
    data = {}
    for key, source in parser.items("data") if parser.has_section("data") else []:
        try:
            re_tau = float(key)
            if not (np.isfinite(re_tau) and re_tau > 0):
                raise ValueError
        except ValueError:
            raise ConfigError(f"[data] key {key!r} is not a finite positive Re_tau") from None
        if re_tau in data:
            raise ConfigError(f"[data] names Re_tau={re_tau:g} more than once")
        data[re_tau] = source
    settings = Settings(**{section: dict(parser.items(section)) for section in DEFAULTS},
                        data=data)
    for section, keys in DEFAULTS.items():
        for key in keys:
            _get(settings, section, key)  # every value casts, whatever the command
    return settings


def _get(settings: Settings, section: str, key: str):
    """The value of ``section.key``, cast as ``DEFAULTS`` says."""
    raw = getattr(settings, section)[key]
    try:
        return DEFAULTS[section][key][1](raw)
    except ValueError as e:
        raise ConfigError(f"invalid value for {section}.{key}: {raw!r}") from e


def build_channel_config(settings: Settings, re_tau=None) -> channel.ChannelConfig:
    try:
        return channel.ChannelConfig(
            re_tau=float(re_tau) if re_tau is not None else _get(settings, "channel", "re_tau"),
            n_cells=_get(settings, "channel", "n_cells"),
            stretch=_get(settings, "channel", "stretch"),
            max_iters=_get(settings, "channel", "max_iters"),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_reference_profile(settings: Settings, re_tau: float):
    """Reference profile for one Re_tau from the [data] section, and the
    record of its file (``read_reference_profile``); the keyword
    ``synthetic`` (also the default) builds the bundled self-consistent
    synthetic profile, which has no file: its record is None."""
    source = settings.data.get(float(re_tau), "synthetic")
    if source == "synthetic":
        return dns.synthetic_profile(re_tau), None
    return read_reference_profile(source, re_tau)


def read_reference_profile(path, re_tau: float):
    """A profile file that is well formed and covers the half channel at
    ``re_tau``, and its manifest record: the base name, so the same file
    read from another directory gives the same manifest, and the sha256
    of the bytes it was parsed from (the file is read once). DataError
    (exit 4) otherwise. This is the one reader of profile files; ``dns``
    parses their text."""
    document, text = _read(path, DataError, "reference profile",
                           f"reference profile for Re_tau={re_tau:g} not found: {path}")
    try:
        profile = dns.parse_profile(text, re_tau=re_tau)
        dns.check_coverage(profile, re_tau)
    except dns.ProfileParseError as e:
        raise DataError(str(e)) from e
    return profile, {"file": os.path.basename(path),
                     "sha256": hashlib.sha256(document).hexdigest()}


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
    """The manifest of a run directory; DataError (exit 4) if it is
    missing or unreadable, is not UTF-8 JSON, or holds something other
    than an object."""
    path = os.path.join(run_dir, "manifest.json")
    _, text = _read(path, DataError, "manifest", f"no manifest.json in {run_dir}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"unreadable manifest {path}: {e}") from e
    if not isinstance(doc, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    return doc


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


def write_trace_csv(state: channel.ChannelState, *paths, trace) -> None:
    """Write the state's barycentric position and corner weights, its
    ``trace`` as ``channel.barycentric_trace`` returns it, to each of
    ``paths``: one row per node, every float as ``%.17g`` and ``nan`` at
    degenerate nodes."""
    xy, w = trace
    channel._write_csv(paths, "y_plus,x,y,C1,C2,C3", np.column_stack([state.y_plus, xy, w]))


def count_realizability_violations(state: channel.ChannelState) -> int:
    return int(np.count_nonzero(~tensors.is_realizable(state.tau, tol=_REALIZABILITY_TOL)))


def solve_record(state: channel.ChannelState) -> dict:
    """How a solve reached its fixed point, as manifest fields."""
    return {
        "iterations": state.iterations,
        "picard_sweeps": state.picard_sweeps,
        "newton_steps": state.newton_steps,
        "fixed_point_residual": state.fixed_point_residual,
        "total_shear_error": channel.total_shear_error(state),
    }


# ---------------------------------------------------------------------------
# commands


def cmd_baseline(settings: Settings, out_dir) -> int:
    cfg = build_channel_config(settings)
    state = channel.solve(cfg)
    _ensure_out(out_dir)
    trace = channel.barycentric_trace(state)
    channel.write_solution_csv(state, os.path.join(out_dir, "baseline.csv"), trace=trace)
    write_trace_csv(state, os.path.join(out_dir, "baseline_trace.csv"), trace=trace)
    write_manifest(
        out_dir,
        "baseline",
        settings,
        {
            **solve_record(state),
            "centerline_U": state.centerline_U,
            "realizability_violations": count_realizability_violations(state),
        },
    )
    return EXIT_OK


def train_forest(settings: Settings, target_kind: str):
    """Train one forest per the dataset config; returns (forest, metrics
    dict, the record of each reference profile read from a [data] file,
    by Re_tau). Each reference goes to ``dns.build_targets`` as read.
    The baselines of the training Re_tau and of the holdout are solved as one stack (``channel.solve_baselines``),
    each row that of its own ``channel.solve``; a failing one raises the
    SolverError of the first failing Re_tau, in that order."""
    if target_kind not in dns.TARGET_NAMES:
        raise ConfigError(
            f"unknown target {target_kind!r}; choose from {tuple(dns.TARGET_NAMES)}"
        )
    train_re = _get(settings, "train", "train_re_tau")
    holdout_re = _get(settings, "train", "holdout_re_tau")
    seed = _get(settings, "train", "seed")
    if not train_re:
        raise ConfigError("train.train_re_tau is empty")
    try:
        hp = replace(forest.HYPERPARAMS[target_kind], seed=seed)
    except ValueError as e:
        raise ConfigError(str(e)) from e

    # the targets of each Re_tau in turn; the list of solve_baselines
    # holds every state until the loop ends, and none is held while the
    # forest is fitted
    sets, sources = [], {}
    re_taus = [*train_re, holdout_re]
    for re_tau, state in zip(re_taus, channel.solve_baselines(
            [build_channel_config(settings, re_tau=re_tau) for re_tau in re_taus])):
        if isinstance(state, channel.SolverError):
            raise state
        profile, source = load_reference_profile(settings, re_tau)
        if source is not None:
            sources[re_tau] = source
        sets.append(dns.build_targets(state, profile, target_kind))
    del state
    training, *more, held = sets
    for targets in more:
        training.extend(targets)

    fitted = forest.fit(
        training.X,
        training.Y,
        hp,
        feature_names=training.feature_names,
        target_names=training.target_names,
    )

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
    return fitted, metrics, sources


def cmd_train(settings: Settings, out_dir, target_kind: str) -> int:
    fitted, metrics, sources = train_forest(settings, target_kind)
    _ensure_out(out_dir)
    forest.save(fitted, os.path.join(out_dir, f"forest_{target_kind}.json"))
    # every metric but the hyperparameters, which only the manifest records
    columns = [key for key in metrics if key != "hyperparams"]
    _write_rows(
        os.path.join(out_dir, "metrics.csv"), columns, [[metrics[key] for key in columns]]
    )
    extra = {"metrics": metrics}
    if sources:
        extra["data"] = sources
    write_manifest(out_dir, "train", settings, extra)
    return EXIT_OK


def _load_forest(path, mode):
    """The forest at ``path``, checked to map the solver's features to
    the targets of ``mode``, and the sha256 of the bytes it was parsed
    from: the file is read once."""
    if path is None:
        raise ConfigError("data-driven uq mode needs --forest")
    document, text = _read(path, DataError, "forest file")
    try:
        fitted = forest.loads(text, path)
    except ForestFormatError as e:
        raise DataError(str(e)) from e
    check_forest(fitted, mode)
    return fitted, hashlib.sha256(document).hexdigest()


def check_forest(fitted, mode):
    """ConfigError unless ``fitted`` reads the solver's features and
    predicts the targets of ``mode``."""
    if fitted.n_features != len(features.DEFAULT_FEATURES):
        raise ConfigError(
            f"forest expects {fitted.n_features} features, "
            f"solver provides {len(features.DEFAULT_FEATURES)}"
        )
    try:
        channel.PerturbationInjection.check_target_count(mode, fitted.n_targets)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def forest_targets(fitted, baseline):
    """Per-node perturbation targets: the forest queried once, on the
    converged baseline whose features it was trained on."""
    return fitted.predict(features.feature_matrix(baseline))


def run_uq(settings: Settings, mode: str, forest_path=None, delta_b=None):
    """Check the mode's arguments, then solve its envelope. A mode
    rejects a ``forest_path`` or ``delta_b`` (command-line values) it
    does not take; without ``delta_b`` it reads ``uq.delta_b``. A
    data-driven mode takes its targets from the forest queried on the
    baseline of the envelope. Returns the envelope and the sha256 of the
    forest file (None without one)."""
    cfg = build_channel_config(settings)
    takes = channel.PerturbationInjection.TAKES.get(mode)
    if takes is None:
        raise ConfigError(f"unknown uq mode {mode!r}")
    if forest_path is not None and "targets" not in takes:
        raise ConfigError(f"uq mode {mode!r} does not take --forest")
    if delta_b is not None and "delta_b" not in takes:
        raise ConfigError(f"uq mode {mode!r} does not take --delta-b")
    if "targets" in takes:
        fitted, digest = _load_forest(forest_path, mode)
        baseline = channel.solve(cfg)
        injections = channel.corner_injections(mode, targets=forest_targets(fitted, baseline))
        return channel.uq_envelope(cfg, injections, baseline), digest
    if delta_b is None:
        delta_b = _get(settings, "uq", "delta_b")
    try:
        injections = channel.corner_injections(mode, delta_b=delta_b)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return channel.uq_envelope(cfg, injections), None


def cmd_uq(settings: Settings, out_dir, forest_path=None, delta_b=None) -> int:
    mode = _get(settings, "uq", "mode")
    env, forest_sha256 = run_uq(settings, mode, forest_path, delta_b)
    # the manifest records only the settings this mode ran with: [channel]
    # and the [uq] keys it takes
    takes = channel.PerturbationInjection.TAKES[mode]
    ran = replace(settings, uq={k: v for k, v in settings.uq.items() if k == "mode" or k in takes})
    _ensure_out(out_dir)
    channel.write_solution_csv(env.baseline, os.path.join(out_dir, "baseline.csv"))
    # slots that share one state (the corner-free modes) share its trace
    # and its formatted files
    slots = {}
    for corner, st in env.corner_states.items():
        slots.setdefault(id(st), (st, []))[1].append(corner)
    for st, corners in slots.values():
        trace = channel.barycentric_trace(st)
        channel.write_solution_csv(
            st, *(os.path.join(out_dir, f"corner_{c}.csv") for c in corners), trace=trace
        )
        write_trace_csv(st, *(os.path.join(out_dir, f"trace_{c}.csv") for c in corners),
                        trace=trace)
    channel._write_csv(
        [os.path.join(out_dir, "envelope.csv")], "y_plus,U_baseline,U_min,U_max,width",
        np.column_stack([env.baseline.y_plus, env.baseline.U_plus, env.U_min, env.U_max,
                         env.width]),
    )
    violations = count_realizability_violations(env.baseline) + sum(
        count_realizability_violations(s) for s in env.corner_states.values()
    )
    # each field of the solve record, then the stress consistency, by corner
    records = {c: {**solve_record(s), "stress_consistency": s.stress_consistency}
               for c, s in env.corner_states.items()}
    extra = {
        "mode": mode,
        "integrated_width": env.integrated_width(),
        "realizability_violations": violations,
        **{key: {c: r[key] for c, r in records.items()} for key in records["1C"]},
    }
    if forest_sha256 is not None:
        # the base name, as read_reference_profile records a profile
        extra["forest"] = {"file": os.path.basename(forest_path), "sha256": forest_sha256,
                           "queried_on": "baseline"}
    write_manifest(out_dir, "uq", ran, extra, sections=("channel", "uq"))
    return EXIT_OK


def cmd_propagate_dns(settings: Settings, out_dir, dns_path=None) -> int:
    cfg = build_channel_config(settings)
    noise = _get(settings, "propagate", "noise")
    seed = _get(settings, "propagate", "noise_seed")
    if dns_path is not None:
        profile, source = read_reference_profile(dns_path, cfg.re_tau)
    else:
        profile, source = load_reference_profile(settings, cfg.re_tau)
    extra = {} if source is None else {"dns": source}
    try:
        injection = channel.FrozenStressInjection(
            profile=profile, noise_amplitude=noise, noise_seed=seed
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    state = channel.solve(cfg, injection)
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
            **solve_record(state),
            "realizability_violations": count_realizability_violations(state),
            **extra,
        },
    )
    return EXIT_OK


def _report_field(run_dir, field, value, kind=(str, int, float)):
    """``value``, the ``field`` of the run in ``run_dir``, if it is of
    ``kind``, not true or false, and no text with a comma or line break
    (which would split a row of summary.csv); DataError (exit 4) if not."""
    if (not isinstance(value, kind) or isinstance(value, bool)
            or isinstance(value, str) and any(c in value for c in ",\r\n")):
        raise DataError(f"manifest of {run_dir}: {field} cannot be {value!r}")
    return value


def cmd_report(run_dirs, out_dir) -> int:
    """Aggregate one or more completed run directories into summary.csv."""
    rows = []
    uq_runs = {"datafree": [], "data-driven": []}  # kind -> [(run, width)]
    for run_dir in run_dirs:
        man = read_manifest(run_dir)
        field = functools.partial(_report_field, run_dir)
        settings = field("settings", man.get("settings", {}), dict)
        channel_settings = field("settings.channel", settings.get("channel", {}), dict)
        name = field("run name", os.path.basename(os.path.normpath(run_dir)))
        cmdname = field("command", man.get("command", ""))
        mode = field("mode", man.get("mode", ""))
        width = field("integrated_width", man.get("integrated_width", np.nan), (int, float))
        if cmdname == "uq":
            if mode not in channel.PerturbationInjection.TAKES:
                raise DataError(f"manifest of {run_dir}: mode cannot be {man.get('mode')!r}")
            kind = "datafree" if mode == "datafree" else "data-driven"
            uq_runs[kind].append((name, width))
        rows.append(
            [
                name,
                cmdname,
                mode,
                field("re_tau", channel_settings.get("re_tau", "")),
                width,
                field("rel_l2_error_U", man.get("rel_l2_error_U", np.nan), (int, float)),
                field("realizability_violations", man.get("realizability_violations", np.nan),
                      (int, float)),
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
