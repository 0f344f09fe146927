"""Per-layer tracing for the benchmark.

The tracer wraps the public functions of every ``eigenuq`` module in
place while it is installed and puts the originals back when it is
removed, so the package itself is not edited. Every module attribute
bound to a wrapped function is replaced, which also catches names a
module imported from another (``channel.interpolate`` is
``dns.interpolate``).

Calls are recorded as a calling-context tree: all calls of one function
under one parent span, with the same detail label, share a span record
holding their count, first start, last end, total and self time. One
data-free envelope calls the stress algebra over 100,000 times, and a
record per call would make the trace hundreds of megabytes.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("channel", "cli", "dns", "features", "forest", "perturb", "pipeline",
           "rotation", "tensors")

# Layers the per-layer metrics name. One that a later version of the
# package no longer has is reported as absent, with zero calls.
EXPECTED = (
    "channel.solve", "channel.inject", "channel.decompose_stack",
    "channel.project_points", "channel.rotation_stack",
    "channel.write_solution_csv", "channel.barycentric_trace",
    "features.feature_matrix", "forest.predict", "forest.fit", "forest.save",
    "forest.load", "dns.build_targets", "dns.interpolate",
    "rotation.extract_angles", "tensors.decompose", "tensors.is_realizable",
    "pipeline.write_trace_csv", "pipeline.count_realizability_violations",
    "pipeline.cmd_baseline", "pipeline.cmd_train", "pipeline.cmd_uq",
    "pipeline.cmd_propagate_dns", "pipeline.cmd_report", "cli.run",
    "perturb.perturb_point_corner", "perturb.perturb_point_magnitude",
    "perturb.perturb_point_componentwise", "perturb.build_perturbed_stress",
)

ROOT = 0


def _baseline_detail(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return f"baseline re_tau={cfg.re_tau:g}"


def _injection_detail(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    inj = args[1] if len(args) > 1 else kwargs["injection"]
    label = getattr(inj, "mode", type(inj).__name__)
    corner = getattr(inj, "corner", None)
    if corner:
        label = f"{label}-{corner}"
    return f"{label} re_tau={cfg.re_tau:g}"


def _solution_digest(state):
    h = hashlib.sha256()
    for name in ("U_plus", "k_plus", "omega_plus", "nu_t_plus"):
        h.update(getattr(state, name).tobytes())
    return h.digest()


class Tracer:
    """Wraps the package's public functions and aggregates their spans."""

    def __init__(self, clock):
        self.clock = clock  # time source of every span
        self.t0 = clock()
        # span record: [parent, name, detail, calls, first_start, last_end, total]
        self.spans = [[None, "root", None, 0, 0.0, 0.0, 0.0]]
        self._index = {}
        self._stack = [ROOT]
        self._active = Counter()
        self.counters = defaultdict(Counter)
        self._op_solutions = []
        self._installed = []
        self.found = set()
        self._hooks = {
            "channel.solve": self._on_solve,
            "forest.predict": self._on_predict,
        }

    # -- installation -------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, detail function) for every
        function to wrap that exists in the package."""
        mods = {}
        for m in MODULES:
            try:
                mods[m] = importlib.import_module(f"eigenuq.{m}")
            except ModuleNotFoundError as e:
                if e.name != f"eigenuq.{m}":
                    raise
        out = []
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name, detail = f"{short}.{attr}", None
                if name == "channel.solve_baseline":
                    name, detail = "channel.solve", _baseline_detail
                elif name == "channel.solve_with_injection":
                    name, detail = "channel.solve", _injection_detail
                out.append((mod, attr, name, detail))
        ch = mods.get("channel")
        base = getattr(ch, "StressInjection", None)
        for cls in vars(ch).values() if base is not None else ():
            if (inspect.isclass(cls) and issubclass(cls, base)
                    and inspect.isfunction(cls.__dict__.get("compute"))):
                out.append((cls, "compute", "channel.inject", None))
        cls = getattr(mods.get("forest"), "RegressionForest", None)
        if cls is not None and inspect.isfunction(cls.__dict__.get("predict")):
            out.append((cls, "predict", "forest.predict", None))
        return mods, out

    def install(self):
        mods, targets = self._targets()
        for owner, attr, name, detail in targets:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, detail)
            self.found.add(name)
            if inspect.isclass(owner):
                self._bind(owner, attr, original, wrapped)
                continue
            for mod in mods.values():
                for other, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, other, original, wrapped)

    def _bind(self, owner, attr, original, wrapped):
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------

    def _span_id(self, name, detail):
        parent = self._stack[-1]
        key = (parent, name, detail)
        sid = self._index.get(key)
        if sid is None:
            sid = len(self.spans)
            self._index[key] = sid
            self.spans.append([parent, name, detail, 0, None, 0.0, 0.0])
        return sid

    def _close(self, sid, name, outermost, t_start, t_end):
        span = self.spans[sid]
        span[3] += 1
        if span[4] is None:
            span[4] = t_start - self.t0
        span[5] = t_end - self.t0
        span[6] += t_end - t_start
        c = self.counters[name]
        c["calls"] += 1
        if outermost:
            c["s"] += t_end - t_start

    def _wrap(self, name, fn, detail):
        clock = self.clock
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            sid = self._span_id(name, detail(args, kwargs) if detail else None)
            self._stack.append(sid)
            outermost = self._active[name] == 0
            self._active[name] += 1
            t_start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[name]["errors"] += 1
                raise
            finally:
                t_end = clock()
                self._active[name] -= 1
                self._stack.pop()
                self._close(sid, name, outermost, t_start, t_end)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _on_solve(self, args, state):
        c = self.counters["channel.solve"]
        c["iters"] += state.iterations
        self._op_solutions.append(_solution_digest(state))

    def _on_predict(self, args, result):
        self.counters["forest.predict"]["rows"] += len(result)

    def begin_op(self, label, command):
        self._op_solutions = []
        sid = self._span_id("op", label)
        self._stack.append(sid)
        return sid, command, self.clock()

    def end_op(self, token):
        sid, command, t_start = token
        self._stack.pop()
        self._close(sid, "op", True, t_start, self.clock())
        c = self.counters["channel.solve"]
        distinct = len(set(self._op_solutions))
        c["distinct"] += distinct
        if command == "uq":
            c["uq_solves"] += len(self._op_solutions)
            c["uq_distinct"] += distinct

    # -- results ------------------------------------------------------

    def self_times(self):
        child_total = defaultdict(float)
        for parent, *_rest, total in self.spans[1:]:
            child_total[parent] += total
        return [span[6] - child_total[i] for i, span in enumerate(self.spans)]

    def layer_stats(self):
        """Per layer: calls, s (inclusive, outermost calls only), self_s,
        us_per_call, plus the layer's own counters."""
        self_s = defaultdict(float)
        for span, own in zip(self.spans[1:], self.self_times()[1:]):
            self_s[span[1]] += own
        stats = {}
        for name in sorted(set(EXPECTED) | set(self.counters) - {"op"}):
            c = self.counters[name]
            st = dict(c)
            st.update(calls=c["calls"], s=c["s"], self_s=self_s[name],
                      us_per_call=1e6 * c["s"] / c["calls"] if c["calls"] else 0.0)
            stats[name] = st
        solve = stats["channel.solve"]
        solve["errors"] = solve.get("errors", 0)
        solve["iters"] = solve.get("iters", 0)
        solve["us_per_iter"] = 1e6 * solve["s"] / solve["iters"] if solve["iters"] else 0.0
        solve["unique_ratio"] = (solve.get("distinct", 0) / solve["calls"]
                                 if solve["calls"] else 0.0)
        # the same over the solves of uq ops alone, where uq_envelope
        # repeats the corner-free solve of the componentwise modes
        solve["uq_unique_ratio"] = (solve.get("uq_distinct", 0) / solve["uq_solves"]
                                    if solve.get("uq_solves") else 0.0)
        stats["forest.predict"]["rows"] = stats["forest.predict"].get("rows", 0)
        return stats

    def absent(self):
        return sorted(set(EXPECTED) - self.found)

    def span_records(self):
        own = self.self_times()
        return [
            {"id": i, "parent": p, "name": name, "detail": detail, "calls": calls,
             "start_s": start, "end_s": end, "s": total, "self_s": own[i]}
            for i, (p, name, detail, calls, start, end, total) in enumerate(self.spans)
            if i != ROOT
        ]
