"""Output checks and quality numbers for one benchmark op.

Each check returns a list of problems, so that a bad op counts as
failed and the run carries on. Outputs malformed in a way the checks do
not foresee can still make them raise; the caller counts that as a
failed op too.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# Columns where NaN is the documented "not applicable" marker: the
# barycentric position of a degenerate (near-laminar) node, and the
# summary.csv fields that a run's command does not produce.
NAN_OK = {"x", "y", "C1", "C2", "C3", "integrated_width", "rel_l2_error_U",
          "realizability_violations", "width_ratio_datafree_over_datadriven"}
TEXT_COLUMNS = {
    "summary.csv": {"run", "command", "mode", "re_tau", "iterations"},
    "metrics.csv": {"target_kind"},
}
# commands whose manifest must report realizability_violations
REALIZABILITY_COMMANDS = {"baseline", "uq", "propagate-dns"}


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def csv_columns(path):
    header, rows = read_csv(path)
    return {name: np.array([float(r[j]) for r in rows]) for j, name in enumerate(header)}


def _csv_problems(path):
    header, rows = read_csv(path)
    text = TEXT_COLUMNS.get(path.name, set())
    for n, row in enumerate(rows, start=2):
        if len(row) != len(header):
            return [f"{path.name}:{n}: {len(row)} fields, header has {len(header)}"]
        for name, cell in zip(header, row):
            if name in text:
                continue
            try:
                v = float(cell)
            except ValueError:
                return [f"{path.name}:{n}: {name}={cell!r} is not a number"]
            if math.isinf(v) or (math.isnan(v) and name not in NAN_OK):
                return [f"{path.name}:{n}: {name}={cell} is not finite"]
    return []


def check_outputs(out_dir: Path, exit_code):
    """Problems with one op's outputs; empty when the op passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["no manifest.json"]
    manifest = json.loads(manifest_path.read_text())
    problems = []
    for path in sorted(out_dir.glob("*.csv")):
        problems += _csv_problems(path)
    if problems:
        return problems
    command = manifest.get("command")
    if command in REALIZABILITY_COMMANDS and manifest.get("realizability_violations") != 0:
        problems.append(
            f"realizability_violations = {manifest.get('realizability_violations')}")
    if command == "uq":
        problems += _envelope_problems(out_dir)
    return problems


def _envelope_problems(out_dir: Path):
    """envelope.csv against the profiles it summarises: U_baseline is
    baseline.csv's U_plus, U_min/U_max are the node-wise min/max over the
    baseline and corner U_plus columns (all written with 17 significant
    digits, so they compare exactly), and U_min <= U_baseline <= U_max."""
    env = csv_columns(out_dir / "envelope.csv")
    baseline = csv_columns(out_dir / "baseline.csv")["U_plus"]
    profiles = np.vstack([baseline] + [csv_columns(out_dir / f"corner_{c}.csv")["U_plus"]
                                       for c in ("1C", "2C", "3C")])
    problems = []
    if not np.array_equal(env["U_baseline"], baseline):
        problems.append("envelope.csv: U_baseline differs from baseline.csv")
    if not np.array_equal(env["U_min"], profiles.min(axis=0)):
        problems.append("envelope.csv: U_min is not the min over baseline and corners")
    if not np.array_equal(env["U_max"], profiles.max(axis=0)):
        problems.append("envelope.csv: U_max is not the max over baseline and corners")
    if not (np.all(env["U_min"] <= env["U_baseline"])
            and np.all(env["U_baseline"] <= env["U_max"])):
        problems.append("envelope.csv: U_baseline outside [U_min, U_max]")
    return problems


def output_digest(out_dir: Path) -> str:
    """Hash of every output file's name and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def stress_consistency(out_dir: Path, manifest) -> float:
    """Max over corners of |min(-uv_recomputed, cap) - min(-uv_csv, cap)|.

    The stress is recomputed from the written U/k/omega/nu_t with the
    package's own data-free injection; cap is the total-stress line
    1 - y+/Re_tau that the solver bounds the injected shear by.
    """
    from eigenuq import channel

    re_tau = float(manifest["settings"]["channel"]["re_tau"])
    delta_b = float(manifest["settings"]["uq"]["delta_b"])
    worst = 0.0
    for corner in ("1C", "2C", "3C"):
        c = csv_columns(out_dir / f"corner_{corner}.csv")
        y = c["y_plus"]
        state = SimpleNamespace(
            re_tau=re_tau, y_plus=y, U_plus=c["U_plus"], k_plus=c["k_plus"],
            omega_plus=c["omega_plus"], nu_t_plus=c["nu_t_plus"],
            dUdy_plus=np.gradient(c["U_plus"], y),
        )
        injection = channel.PerturbationInjection(
            mode="datafree", corner=corner, delta_b=delta_b)
        uv = injection.compute(state)[:, 0, 1]
        cap = 1.0 - y / re_tau
        err = np.abs(np.minimum(-uv, cap) - np.minimum(-c["uv"], cap))
        worst = max(worst, float(np.max(err)))
    return worst


def quality(out_dir: Path):
    """Quality numbers an op's outputs carry, as {name: value}."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    command = manifest.get("command")
    if command == "uq" and manifest.get("mode") == "datafree":
        return {"stress_consistency_max": stress_consistency(out_dir, manifest)}
    if command == "train":
        m = manifest["metrics"]
        return {f"holdout_mse_ratio.{m['target_kind']}":
                m["holdout_mse"] / m["holdout_mean_predictor_mse"]}
    if command == "propagate-dns":
        re_tau = float(manifest["settings"]["channel"]["re_tau"])
        return {f"propagate_rel_l2.{re_tau:g}": manifest["rel_l2_error_U"]}
    return {}
