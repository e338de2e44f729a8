"""Span recorder for the traced benchmark run.

The traced child installs wrappers around public ``fracheat`` functions from
outside the package: the function is replaced in its defining module, in
every ``fracheat`` module that imported the name, and inside module-level
tuples that hold it (``acceptance.QUICK_CHECKS``).  Each call becomes one
span (id, parent id, name, start, end, run id) kept in memory; the child
writes them out when the workload ends.  Untraced runs never import this
module.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import resource
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run: str


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Work counts taken from a call's bound arguments and return value


def _volterra_counts(tracer: "Tracer", a: dict, result) -> dict:
    op = a["op"]
    key = (op.grid, op.config, float(a["T"]), int(a["steps"]))
    repeat = key in tracer.seen
    tracer.seen.add(key)
    return {"steps": int(a["steps"]), "repeats": int(repeat)}


def _branch_counts(tracer: "Tracer", a: dict, result) -> dict:
    return {result.branch: 1}


def _ensemble_counts(tracer: "Tracer", a: dict, result) -> dict:
    return {
        "path_steps": a["n_paths"] * a["disc"].n_steps(),
        "paths": a["n_paths"],
        "flagged": result.flagged_count,
    }


def _pair_counts(tracer: "Tracer", a: dict, result) -> dict:
    return {"paths": a["n_paths"]}


def _file_bytes(tracer: "Tracer", a: dict, result) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


class Target(NamedTuple):
    name: str                      # "<module>.<function>" or "<module>.<Class>.<method>"
    counts: Optional[Callable] = None
    rss: bool = False              # record the rise in ru_maxrss across each call
    keep_args: bool = False        # keep the first call's arguments for the speed-up rerun


TARGETS = (
    Target("laplacian.assemble"),
    Target("specfun.mittag_leffler"),
    Target("specfun.log_mittag_leffler"),
    Target("specfun.log_f_beta"),
    Target("kernels.stable_density"),
    Target("kernels.check_domination"),
    Target("bounds.volterra_lower_solve"),
    Target("bounds.second_moment_volterra", _volterra_counts),
    Target("bounds.measure_growth_model"),
    Target("bounds.oracle_moment_curves", _branch_counts),
    Target("bounds.fit_envelope_constants"),
    Target("sde.run_ensemble", _ensemble_counts, rss=True, keep_args=True),
    Target("sde.estimate_second_moment_pair", _pair_counts, rss=True, keep_args=True),
    Target("sde.PathEnsemble.write_csv", _file_bytes),
    Target("moments.estimate_energy"),
    Target("moments.estimate_sup_moment"),
    Target("moments.estimate_inf_subinterval_moment"),
    Target("moments.SweepResult.write_csv"),
    Target("svgplot.write_svg"),
    Target("cli.read_ensemble_csv", _file_bytes, rss=True),
    Target("cli.cmd_simulate"),
    Target("cli.cmd_moments"),
    Target("cli.cmd_sweep"),
    Target("cli.cmd_selftest"),
)


def acceptance_targets() -> tuple:
    """One target per quick acceptance check, named after its function."""
    from fracheat import acceptance

    return tuple(Target(f"acceptance.{fn.__name__}") for fn in acceptance.QUICK_CHECKS)


class Tracer:
    """In-memory spans and per-function work counts for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.first_args: dict = {}
        self.originals: dict = {}
        self.seen: set = set()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn: Callable) -> Callable:
        sig = inspect.signature(fn) if (target.counts or target.keep_args) else None
        name = target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            rss0 = _maxrss_mb() if target.rss else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, t0, t1, self.run_id))
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                if target.keep_args and name not in self.first_args:
                    self.first_args[name] = dict(bound.arguments)
                if target.counts:
                    bound.apply_defaults()
                    for key, v in target.counts(self, bound.arguments, result).items():
                        self.counts[name][key] += v
            if target.rss:
                self.counts[name]["rss_gain_mb"] += _maxrss_mb() - rss0
            return result

        return wrapper


def install(tracer: Tracer, targets) -> None:
    """Replace each target everywhere ``fracheat`` holds a reference to it."""
    import fracheat  # noqa: F401  (loads every submodule the targets name)
    from fracheat import cli  # noqa: F401

    modules = [m for k, m in sys.modules.items() if k == "fracheat" or k.startswith("fracheat.")]
    for target in targets:
        module_name, _, attr = target.name.partition(".")
        owner = sys.modules[f"fracheat.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            tracer.originals[target.name] = original
            setattr(cls, meth, tracer.wrap(target, original))
            continue
        original = getattr(owner, attr)
        tracer.originals[target.name] = original
        wrapped = tracer.wrap(target, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                elif isinstance(value, tuple) and any(v is original for v in value):
                    setattr(m, key, tuple(wrapped if v is original else v for v in value))


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured cost of one wrapped call over a bare call, in seconds."""

    def noop():
        return None

    wrapped = Tracer("calibration").wrap(Target("noop"), noop)
    best = {}
    for label, fn in (("bare", noop), ("wrapped", wrapped)):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            runs.append(time.perf_counter() - t0)
        best[label] = min(runs)
    return max(best["wrapped"] - best["bare"], 0.0) / calls


def layer_metrics(spans, counts) -> dict:
    """Per-function calls, total and self time, work counts and derived ratios."""
    selfs = self_times(spans)
    out: dict = defaultdict(float)
    for s in spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.total_s"] += s.end - s.start
        out[f"{s.name}.self_s"] += selfs[s.id]
    for name, stats in counts.items():
        for key, v in stats.items():
            out[f"{name}.{key}"] += v
    for ratio, (num, den) in {
        "bounds.second_moment_volterra.repeat_frac": (
            "bounds.second_moment_volterra.repeats", "bounds.second_moment_volterra.calls"),
        "sde.run_ensemble.flagged_frac": ("sde.run_ensemble.flagged", "sde.run_ensemble.paths"),
    }.items():
        if out.get(den):
            out[ratio] = out.get(num, 0.0) / out[den]
    return dict(out)
