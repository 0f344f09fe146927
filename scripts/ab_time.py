"""Time one eigenuq command in two checkouts, in one process, in
interleaved pairs.

    python3 scripts/ab_time.py CHECKOUT_A CHECKOUT_B [--pairs N] -- ARGV...

ARGV is an eigenuq command line without ``--out``, for example
``uq --mode datafree --delta-b 1.0 --re-tau 180``. Each checkout's
``src/eigenuq`` is imported under a package name of its own
(``eigenuq_a``, ``eigenuq_b``): the package imports its modules
relatively, so each side runs its own code only. Both sides run in this
one process, so the comparison leaves out interpreter start-up and
import, and the host's speed drifts alike for both.

Each pair runs the command once on each side, A first in even pairs and
B first in odd ones, each run writing into a new directory of its own
under a temporary one. A warm-up run of each side comes first and is
not counted. The script prints each side's median run time and
quartiles, the median over the pairs of B's time over A's, and how many
pairs B ran faster. Last it compares the two warm-up runs' outputs file
by file and prints ``outputs identical (N files)`` or the names of the
files that differ or are written by one side only, each differing CSV
with the largest |difference| of each of its numeric columns (the
comparison of ``output_matrix.py --compare``); either way the exit
status stays 0. A run that fails, by an exit status other than 0 or an
exception, stops it.
"""

import argparse
import filecmp
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time

SIDES = ("a", "b")

# output_matrix.py beside this script, for its CSV comparison
_spec = importlib.util.spec_from_file_location(
    "output_matrix", os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_matrix.py"))
output_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_matrix)


def load(checkout, name):
    """The ``cli`` module of the eigenuq package in ``checkout``, imported
    as the package ``name``."""
    src = os.path.join(os.path.abspath(checkout), "src", "eigenuq")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    if spec is None:
        raise SystemExit(f"no eigenuq package in {src}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def time_pairs(clis, argv, pairs, out_root):
    """Each side's run times, by pair, in seconds. The warm-up run of
    side s writes into ``warm-up_s`` under ``out_root``."""
    times = {side: [] for side in SIDES}

    def run(side, name):
        out = os.path.join(out_root, name)
        start = time.perf_counter()
        status = clis[side].run([*argv, "--out", out])
        elapsed = time.perf_counter() - start
        if status != 0:
            raise SystemExit(f"side {side.upper()}: eigenuq {' '.join(argv)} exited {status}")
        return elapsed

    for side in SIDES:
        run(side, f"warm-up_{side}")
    for pair in range(pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            times[side].append(run(side, f"{side}{pair}"))
    return times


def compare_outputs(dir_a, dir_b):
    """The printed line that says whether two output directories hold
    the same files, byte for byte, and how far the columns of each
    differing CSV moved."""
    names = [{os.path.relpath(os.path.join(root, name), top)
              for root, _, files in os.walk(top) for name in files}
             for top in (dir_a, dir_b)]
    common = sorted(names[0] & names[1])
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, common, shallow=False)
    differ = sorted(set(mismatch + errors) | (names[0] ^ names[1]))
    for i, name in enumerate(differ):
        if name in mismatch and name.endswith(".csv"):
            deltas = output_matrix.csv_deltas(os.path.join(dir_a, name), os.path.join(dir_b, name))
            differ[i] = f"{name} ({'; '.join(deltas)})"
    if differ:
        return f"outputs differ: {', '.join(differ)}"
    return f"outputs identical ({len(common)} files)"


def summary(times, checkouts):
    """The printed lines of one comparison."""
    lines = []
    for side, checkout in zip(SIDES, checkouts):
        median, q1, q3 = quartiles(times[side])
        lines.append(f"{side.upper()} {checkout}: median {1e3 * median:.3f} ms "
                     f"(q1 {1e3 * q1:.3f}, q3 {1e3 * q3:.3f})")
    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    faster = sum(b < a for a, b in zip(times["a"], times["b"]))
    lines.append(f"B/A: median ratio {statistics.median(ratios):.4f} over {len(ratios)} pairs "
                 f"(q1 {quartiles(ratios)[1]:.4f}, q3 {quartiles(ratios)[2]:.4f}); "
                 f"B faster in {faster} of {len(ratios)}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s CHECKOUT_A CHECKOUT_B [--pairs N] -- ARGV...")
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--pairs", type=int, default=20)
    if "--" not in argv:
        parser.error("no eigenuq command given after --")
    cut = argv.index("--")
    args, command = parser.parse_args(argv[:cut]), argv[cut + 1:]
    if not command:
        parser.error("no eigenuq command given after --")
    if "--out" in command:
        parser.error("the command takes no --out: each run writes into a directory of its own")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    checkouts = (args.checkout_a, args.checkout_b)
    clis = {side: load(checkout, f"eigenuq_{side}") for side, checkout in zip(SIDES, checkouts)}
    with tempfile.TemporaryDirectory() as out_root:
        times = time_pairs(clis, command, args.pairs, out_root)
        outputs = compare_outputs(*(os.path.join(out_root, f"warm-up_{side}") for side in SIDES))
    for line in summary(times, checkouts) + [outputs]:
        print(line)
    return times


if __name__ == "__main__":
    main()
