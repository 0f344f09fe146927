"""eigenuq benchmark: time to an uncertainty envelope and to the short
pipeline commands, with every op's outputs checked.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload envelope-datafree --seed 1 \
        --seconds 20 --trace 0

Each op is one in-process ``eigenuq.cli.run(argv)`` command. A run issues
whole cycles of its workload's ops until ``--seconds`` have passed, and
at least two cycles, so that every op is repeated and the repeat can be
compared byte for byte with the first run. With ``--trace 1`` the second
cycle runs under the tracer (see spans.py) and the run reports the
per-layer metrics; the other cycles run untraced, and the difference of
the two op medians is the tracing overhead.

The host's CPU speed switches between levels up to 1.8x apart within
seconds, so every op and every set-up import is timed under
speed.SpeedProbe, and the gated times and the tracing overhead are
reference seconds: wall seconds converted to the host's fast level. Raw
wall times are printed beside them; span times leave out the probe.

The last line of standard output is one JSON object with the metrics
that BENCHMARK.json names (end_to_end with --trace 0, per_layer with
--trace 1); the lines before it print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import checks
import speed
import workloads
from spans import Tracer

SETUP_REPEATS = 3
SPEED_SCRIPT = Path(__file__).with_name("speed.py")
MIN_CYCLES = 2
TRACED_CYCLE = 1
OUT_DIR = ".perfbench_out"

PER_LAYER_UNITS = {
    "calls": "count", "iters": "count", "errors": "count", "rows": "count",
    "s": "s", "self_s": "s", "us_per_call": "us", "us_per_iter": "us",
    "unique_ratio": "ratio", "uq_unique_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {
            var: os.environ.get(var, "unset (OpenBLAS default: one per core)")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "commit": _git_commit(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def time_setup(src: Path):
    """Time for a fresh interpreter to import the CLI, the set-up every
    ``eigenuq`` invocation pays before it does any work, as medians of
    (reference seconds, wall seconds). The import runs under the
    probe; interpreter start-up around it is counted as wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    regions = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        out = subprocess.run([sys.executable, str(SPEED_SCRIPT)], env=env, check=True,
                             timeout=120, capture_output=True, text=True).stdout
        wall = time.perf_counter() - t
        region = json.loads(out.splitlines()[-1])
        regions.append((wall, region["busy_s"], region["samples"]))
    return (statistics.median(wall - busy - sum(samples)
                              + speed.reference_seconds(busy, samples,
                                                        speed.interp_kernel)
                              for wall, busy, samples in regions),
            statistics.median(wall for wall, _, _ in regions))


def run_op(cli, op, cycle_dir: Path, tracer, probe):
    """Issue one op under the probe; returns (exit code or error text,
    wall seconds outside the probe, probe samples)."""
    argv = [*(a.format(cycle=cycle_dir) for a in op.argv),
            *(str(cycle_dir / label) for label in op.inputs),
            "--out", str(cycle_dir / op.label)]

    def issue():
        token = tracer.begin_op(op.label, op.command) if tracer else None
        try:
            code = cli.run(argv)
        except Exception as e:  # a failing op is counted as failed, not fatal
            code = f"raised {type(e).__name__}: {e}"
        if tracer:
            tracer.end_op(token)
        return code

    return probe.time(issue)


class Run:
    """Results of one benchmark run."""

    def __init__(self):
        self.ops = []  # (label, cycle, wall seconds outside the probe, traced)
        self.probe_samples = []  # per op
        self.failed = 0
        self.digests = {}
        self.quality = {}
        self.out_bytes = 0

    def times(self, traced=False):
        return [s for _, _, s, t in self.ops if t == traced]

    def reference_times(self, kernel, traced=False):
        """Op times at the host's fast level."""
        return [speed.reference_seconds(busy, samples, kernel)
                for (_, _, busy, t), samples in zip(self.ops, self.probe_samples)
                if t == traced]

    def check(self, op, cycle, out: Path, code, traced):
        try:
            problems = checks.check_outputs(out, code)
            if not problems:
                digest = checks.output_digest(out)
                if self.digests.setdefault(op.label, digest) != digest:
                    problems.append("outputs differ from the first run of this op")
            quality = {} if problems else checks.quality(out)
        except Exception as e:  # outputs the checks could not read
            problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {op.label} (cycle {cycle}): {problem}", file=sys.stderr)
            return
        self.quality.update(quality)
        if traced:
            self.out_bytes += checks.output_bytes(out)


def measure(cli, args, work: Path, tracer, probe):
    run = Run()
    cycles = workloads.WORKLOADS[args.workload](args.seed)
    start = time.perf_counter()
    n = 0
    while n < MIN_CYCLES or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and n == TRACED_CYCLE
        cycle_dir = work / f"cycle-{n}"
        ops = next(cycles)
        with tracer if traced else nullcontext():
            results = [run_op(cli, op, cycle_dir, tracer if traced else None, probe)
                       for op in ops]
        for op, (code, seconds, samples) in zip(ops, results):
            run.ops.append((op.label, n, seconds, traced))
            run.probe_samples.append(samples)
            run.check(op, n, cycle_dir / op.label, code, traced)
        shutil.rmtree(cycle_dir, ignore_errors=True)
        n += 1
    return run


# ---------------------------------------------------------------------------
# metrics


def op_tail(times):
    """(percentile, seconds) of the highest percentile with ten ops
    beyond it, or None when a run has fewer than 20 ops."""
    n = len(times)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def end_to_end(run: Run, setup, kernel):
    """Gated times are reference seconds; the *_wall_* ones are raw."""
    times, wall = run.reference_times(kernel), run.times()
    setup_s, setup_wall_s = setup
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_wall_s": (setup_wall_s, "s"),
        "op_wall_s_p50": (statistics.median(wall), "s"),
        "ops_per_wall_s": (len(wall) / sum(wall), "1/s"),
        "host_speed_mean": (sum(times) / sum(wall), "ratio"),
    }


def per_layer(run: Run, layers, kernel):
    out = {f"{layer}.{stat}": (value, PER_LAYER_UNITS[stat])
           for layer, stats in layers.items()
           for stat, value in stats.items() if stat in PER_LAYER_UNITS}
    out["pipeline.out_bytes"] = (run.out_bytes, "bytes")
    out["trace.overhead_s"] = (statistics.median(run.reference_times(kernel, traced=True))
                               - statistics.median(run.reference_times(kernel)), "s")
    # quality numbers; 0 on a workload without the op that produces them
    q = run.quality
    out["check.stress_consistency_max"] = (q.get("stress_consistency_max", 0.0), "plus")
    for name in ("propagate_rel_l2", "holdout_mse_ratio"):
        values = [v for k, v in q.items() if k.startswith(name + ".")]
        out[f"check.{name}_max"] = (max(values, default=0.0), "ratio")
    return out


def print_report(args, env, run: Run, metrics, tracer, kernel):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    for key, value in env.items():
        print(f"env.{key} = {value}")
    for (label, cycle, seconds, traced), samples in zip(run.ops, run.probe_samples):
        ref = speed.reference_seconds(seconds, samples, kernel)
        print(f"op {label} cycle {cycle}: {seconds:.4f} s, {ref:.4f} reference s"
              f"{' (traced)' if traced else ''}")
    times = run.reference_times(kernel)
    attempted, failed = len(run.ops), run.failed
    print(f"ops attempted {attempted}, failed {failed}")
    print(f"{'fail_frac':<44} {failed / attempted:.6g} ratio")
    tail = op_tail(times)
    if tail is None:
        print(f"{'op_s_tail':<44} n/a ({len(times)} ops, needs 20)")
    else:
        pct, value = tail
        print(f"{'op_s_tail':<44} {value:.6g} s (p{pct:.0f} of {len(times)} ops,"
              " 10 beyond)")
    for prefix, unit in (("stress_consistency_max", "plus"), ("holdout_mse_ratio", "ratio"),
                         ("propagate_rel_l2", "ratio")):
        found = sorted(k for k in run.quality if k.split(".")[0] == prefix)
        for name in found:
            print(f"{name:<44} {run.quality[name]:.6g} {unit}")
        if not found:
            print(f"{prefix:<44} n/a (no such op in this workload)")
    if tracer is not None:
        absent = tracer.absent()
        print(f"absent layers: {', '.join(absent) if absent else 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")


def select(metrics, wanted):
    """The metrics BENCHMARK.json lists, in the result-line format."""
    out = {}
    for spec in wanted:
        name = spec["name"]
        if name not in metrics:
            raise KeyError(f"BENCHMARK.json names metric {name!r}, which this run "
                           "does not compute")
        value, unit = metrics[name]
        if unit != spec["unit"]:
            raise ValueError(f"metric {name}: unit {unit!r}, BENCHMARK.json says "
                             f"{spec['unit']!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "eigenuq" / "__init__.py").is_file():
        print(f"perfbench: no eigenuq package in {src}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    from eigenuq import cli

    env = environment(root, args.seed)
    setup = None if args.trace else time_setup(src)
    out_root = root / OUT_DIR
    work = out_root / f"work-{os.getpid()}"
    probe = speed.SpeedProbe(speed.make_array_kernel())
    tracer = Tracer(clock=probe.clock) if args.trace else None
    try:
        run = measure(cli, args, work, tracer, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(run, setup, probe.kernel)
        wanted = spec["end_to_end"]
    else:
        layers = tracer.layer_stats()
        metrics = per_layer(run, layers, probe.kernel)
        wanted = spec["per_layer"]
        out_root.mkdir(exist_ok=True)
        trace_path = out_root / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "env": env, "absent": tracer.absent(),
            "layers": layers, "spans": tracer.span_records(),
        }, indent=1))
        print(f"trace written to {trace_path.relative_to(root)}")
    print_report(args, env, run, metrics, tracer, probe.kernel)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": select(metrics, wanted),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
