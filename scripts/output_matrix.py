"""Write the outputs of seventeen eigenuq commands into one directory, so that
two checkouts can be compared byte for byte.

    python3 scripts/output_matrix.py OUT_DIR
    python3 scripts/output_matrix.py --compare OUT_A OUT_B

The package is imported from the ``src`` directory next to this script,
so each checkout runs its own code. OUT_DIR must not exist yet; each
command writes into its own subdirectory of it, and the data-driven
``uq`` runs read the forests of this run's ``train`` commands. The
commands are deterministic, so every file (CSVs, forests and manifests)
of two checkouts must be identical unless the change alters the numbers
on purpose. ``--compare`` lists the files that differ between two such
directories (or are in one only), prints the largest |difference| of
every numeric column of each differing CSV and the dotted keys whose
values differ in each differing JSON file, and exits with status 1 if
any file differs.
"""

import csv
import json
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from eigenuq import cli, dns  # noqa: E402

SMALL_GRID = os.path.join(ROOT, "perfbench", "uq-small-grid.ini")

# A training on Re_tau whose grids take both branches of the gradient:
# at 192 nodes, 90 and 95.5 are evenly spaced (linspace) grids, and only
# 95.5's spacings are all equal, which numpy's uniform branch needs.
# Written into OUT_DIR and read by a relative path.
MIXED_GRIDS = ("train_mixed_grids.ini", "[train]\ntrain_re_tau = 90, 95.5, 180, 5200\n")
# The synthetic Re_tau 1000 profile as a file, for propagate-dns --dns;
# written into OUT_DIR by dns.write_profile and read by a relative path.
PROFILE = "profile_1000.dat"
# A training whose Re_tau 180 reference is a profile file that the
# [data] section names, written like PROFILE: the file path through
# dns.build_targets, and the data record of the train manifest.
DATA_PROFILE = "profile_180.dat"
DATA_FILE = ("train_data_file.ini", f"[data]\n180 = {DATA_PROFILE}\n")

# (subdirectory, arguments): baselines at a low and the highest Re_tau,
# the three forest kinds the data-driven runs need, a training on mixed
# grids, one with another seed and one on a [data] file, the data-free
# envelope at two settings, a data-driven envelope of each mode (the
# componentwise ones on the 32-cell grid, as the benchmark runs them), a
# noisy propagation with the default and another noise seed, a
# propagation of a profile file and a report over three runs
COMMANDS = [
    ("baseline_180", ["baseline", "--re-tau", "180"]),
    ("baseline_5200", ["baseline", "--re-tau", "5200"]),
    ("train_p", ["train", "--target", "p"]),
    ("train_pcorr", ["train", "--target", "pcorr"]),
    ("train_pcorr_angles", ["train", "--target", "pcorr_angles"]),
    ("train_p_mixed_grids", ["train", "--target", "p", "--config", MIXED_GRIDS[0]]),
    ("train_p_seed_3", ["train", "--target", "p", "--seed", "3"]),
    ("train_p_data_file", ["train", "--target", "p", "--config", DATA_FILE[0]]),
    ("uq_datafree_180", ["uq", "--mode", "datafree", "--delta-b", "1.0", "--re-tau", "180"]),
    ("uq_datafree_1000", ["uq", "--mode", "datafree", "--delta-b", "0.5", "--re-tau", "1000"]),
    ("uq_p_1000", ["uq", "--mode", "p", "--re-tau", "1000",
                   "--forest", os.path.join("train_p", "forest_p.json")]),
    ("uq_pcorr_180", ["uq", "--mode", "pcorr", "--re-tau", "180", "--config", SMALL_GRID,
                      "--forest", os.path.join("train_pcorr", "forest_pcorr.json")]),
    ("uq_pcorr_angles_180", ["uq", "--mode", "pcorr_angles", "--re-tau", "180",
                             "--config", SMALL_GRID,
                             "--forest", os.path.join("train_pcorr_angles",
                                                      "forest_pcorr_angles.json")]),
    ("propagate_1000", ["propagate-dns", "--re-tau", "1000", "--noise", "0.02"]),
    ("propagate_1000_seed_3", ["propagate-dns", "--re-tau", "1000", "--noise", "0.02",
                               "--seed", "3"]),
    ("propagate_dns_1000", ["propagate-dns", "--re-tau", "1000", "--dns", PROFILE]),
    ("report", ["report", "uq_datafree_180", "uq_p_1000", "propagate_1000"]),
]


def _files(top):
    return {os.path.relpath(os.path.join(d, name), top)
            for d, _, names in os.walk(top) for name in names}


def _csv_deltas(path_a, path_b):
    """One line per column of two CSV files of the same header and
    length: the largest |a - b| of a numeric column (NaN against NaN
    counts as equal), or whether a text column differs."""
    tables = []
    for path in (path_a, path_b):
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        tables.append((header, rows))
    (header, rows_a), (header_b, rows_b) = tables
    if header != header_b or len(rows_a) != len(rows_b):
        return [f"header or row count differs ({len(rows_a)} against {len(rows_b)} rows)"]
    lines = []
    for name, a, b in zip(header, zip(*rows_a), zip(*rows_b)):
        try:
            x, y = np.array(a, dtype=float), np.array(b, dtype=float)
        except ValueError:
            lines.append(f"{name}: text {'differs' if a != b else 'identical'}")
            continue
        delta = np.where((x == y) | (np.isnan(x) & np.isnan(y)), 0.0, np.abs(x - y))
        lines.append(f"{name}: max |delta| {delta.max(initial=0.0):.3e}")
    return lines


def _same(x, y):
    """Whether two JSON scalars are equal and of one type (1, 1.0 and
    true differ); NaN equals NaN."""
    return type(x) is type(y) and (x == y or x != x and y != y)


def _key_diffs(x, y, key):
    """Yield one line per dotted key (list entries by index) whose values
    differ between the JSON values ``x`` and ``y``; a list of another
    length differs as a whole."""
    if isinstance(x, dict) and isinstance(y, dict):
        for k in [*x, *(k for k in y if k not in x)]:
            sub = f"{key}.{k}" if key else k
            if k in x and k in y:
                yield from _key_diffs(x[k], y[k], sub)
            else:
                yield f"{sub}: in one file only"
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        for i, (u, v) in enumerate(zip(x, y)):
            yield from _key_diffs(u, v, f"{key}.{i}" if key else str(i))
    elif isinstance(x, (dict, list)) or isinstance(y, (dict, list)) or not _same(x, y):
        yield f"{key or '(whole document)'}: differs"


def _json_diffs(path_a, path_b):
    """The lines of ``_key_diffs`` for two JSON files: none when only the
    formatting differs."""
    docs = []
    for path in (path_a, path_b):
        with open(path, "rb") as f:
            try:
                docs.append(json.load(f))
            except ValueError:
                return [f"not valid JSON: {path}"]
    return list(_key_diffs(*docs, ""))


def compare(a, b):
    """Print how the output directories ``a`` and ``b`` differ; the exit
    status, 1 if any file differs and 0 otherwise."""
    files_a, files_b = _files(a), _files(b)
    names = sorted(files_a | files_b)
    differ = 0
    for name in names:
        if name not in files_a or name not in files_b:
            print(f"only in {a if name in files_a else b}: {name}")
        else:
            with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
                if fa.read() == fb.read():
                    continue
            print(f"differs: {name}")
            detail = {".csv": _csv_deltas, ".json": _json_diffs}.get(os.path.splitext(name)[1])
            if detail:
                for line in detail(os.path.join(a, name), os.path.join(b, name)):
                    print(f"  {line}")
        differ += 1
    print(f"{differ} of {len(names)} files differ")
    return 1 if differ else 0


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        sys.exit(compare(*args[1:]))
    if len(args) != 1:
        sys.exit("usage: python3 scripts/output_matrix.py OUT_DIR\n"
                 "       python3 scripts/output_matrix.py --compare OUT_A OUT_B")
    out = args[0]
    os.makedirs(out)  # fails if it exists: no file of an earlier run may remain
    os.chdir(out)  # relative run paths, so no file records where OUT_DIR is
    for name, text in (MIXED_GRIDS, DATA_FILE):
        with open(name, "w") as f:
            f.write(text)
    dns.write_profile(dns.synthetic_profile(1000.0), PROFILE)
    dns.write_profile(dns.synthetic_profile(180.0), DATA_PROFILE)
    for name, command in COMMANDS:
        start = time.perf_counter()
        code = cli.run([*command, "--out", name])
        print(f"{name}: exit {code}, {time.perf_counter() - start:.2f} s", flush=True)
        if code != 0:
            sys.exit(f"{name} failed with exit code {code}")
    files = sum(len(names) for _, _, names in os.walk("."))
    print(f"{files} files in {out}")


if __name__ == "__main__":
    main()
