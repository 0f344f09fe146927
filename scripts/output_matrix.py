"""Write the outputs of twelve eigenuq commands into one directory, so that
two checkouts can be compared byte for byte.

    python3 scripts/output_matrix.py OUT_DIR

The package is imported from the ``src`` directory next to this script,
so each checkout runs its own code. OUT_DIR must not exist yet; each
command writes into its own subdirectory of it, and the data-driven
``uq`` runs read the forests of this run's ``train`` commands. Compare
two checkouts with ``diff -r OUT_A OUT_B``: the commands are
deterministic, so every file (CSVs, forests and manifests) must be
identical unless the change alters the numbers on purpose.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from eigenuq import cli  # noqa: E402

SMALL_GRID = os.path.join(ROOT, "perfbench", "uq-small-grid.ini")

# (subdirectory, arguments): baselines at a low and the highest Re_tau,
# the three forest kinds the data-driven runs need, the data-free
# envelope at two settings, a data-driven envelope of each mode (the
# componentwise ones on the 32-cell grid, as the benchmark runs them), a
# noisy propagation and a report over three runs
COMMANDS = [
    ("baseline_180", ["baseline", "--re-tau", "180"]),
    ("baseline_5200", ["baseline", "--re-tau", "5200"]),
    ("train_p", ["train", "--target", "p"]),
    ("train_pcorr", ["train", "--target", "pcorr"]),
    ("train_pcorr_angles", ["train", "--target", "pcorr_angles"]),
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
    ("report", ["report", "uq_datafree_180", "uq_p_1000", "propagate_1000"]),
]


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: python3 scripts/output_matrix.py OUT_DIR")
    out = args[0]
    os.makedirs(out)  # fails if it exists: no file of an earlier run may remain
    os.chdir(out)  # relative run paths, so no file records where OUT_DIR is
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
