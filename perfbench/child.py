"""One run of one workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD --out DIR --report PATH
        [--config PATH] [--master-seed N] [--trace] [--setup-only]

The parent spawns this with ``src`` on PYTHONPATH.  It records the moment of
its first call into ``fracheat`` (after interpreter start and imports), runs
the workload, and writes a JSON report.  With ``--trace`` it first installs
the span wrappers of ``spans.py``, and after the workload it reruns the
first Monte Carlo call with 1 and with 2 workers to measure ``speedup_w2``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings

import numpy as np

# Modules are referenced as attributes at call time, so wrappers installed
# by a traced run are the functions that get called.
from fracheat import bounds, cli, laplacian, sde

import workloads


def _selftest_quick(a) -> dict:
    return {"exit_codes": {"selftest": cli.main(["selftest", "quick", "--out", a.out])}}


def _mc_oracle(a) -> dict:
    p = workloads.MC_ORACLE
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p=2 is below 2/(alpha-1), as in check 4
        grid = laplacian.build_grid(L=p["L"], n=p["n"], mu=p["mu"])
        op = laplacian.assemble(grid, laplacian.OperatorConfig(alpha=p["alpha"]))
        params = sde.ModelParams(
            alpha=p["alpha"], L=p["L"], lam=p["lam"],
            sigma=sde.SigmaSpec(kind="linear", l_sigma=1.0, L_sigma=1.0),
            u0=sde.tent_profile(grid), mu=p["mu"], p=2.0,
        )
    disc = sde.Discretization(grid=grid, dt=p["dt"], t_end=p["t_end"], snapshot_times=(p["t_end"],))
    oracle = bounds.second_moment_volterra(
        params, op, grid, T=p["t_end"], steps=p["volterra_steps"]
    ).m[-1]
    coarse, fine = sde.estimate_second_moment_pair(
        params, disc, op, n_paths=p["n_paths"], master_seed=a.master_seed,
        worker_count=p["worker_count"],
    )
    np.savez(
        os.path.join(a.out, "check4.npz"),
        oracle=oracle, coarse=coarse.values, coarse_se=coarse.stderr,
        fine=fine.values, fine_se=fine.stderr,
        flagged=np.array([coarse.flagged_count, fine.flagged_count]),
    )
    return {}


def _ensemble_io(a) -> dict:
    codes = {"simulate": cli.main(["simulate", "--config", a.config, "--out", a.out])}
    snaps = cli.read_ensemble_csv(os.path.join(a.out, "ensemble.csv"))["snapshots"]
    readback = {
        "shape": list(snaps.shape),
        "nan_paths": int(np.count_nonzero(np.isnan(snaps).any(axis=(0, 2)))),
    }
    del snaps
    codes["moments"] = cli.main(["moments", "--config", a.config, "--out", a.out])
    codes["sweep"] = cli.main(["sweep", "--config", a.config, "--out", a.out, "--oracle", "--svg"])
    return {"exit_codes": codes, "readback": readback}


def _long_horizon(a) -> dict:
    return {"exit_codes": {"simulate": cli.main(["simulate", "--config", a.config, "--out", a.out])}}


RUNS = {
    "selftest-quick": _selftest_quick,
    "mc-oracle": _mc_oracle,
    "ensemble-io": _ensemble_io,
    "long-horizon": _long_horizon,
}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _speedups(tracer) -> dict:
    """Serial time over 2-worker time for the first traced Monte Carlo call."""
    out = {}
    for name in ("sde.run_ensemble", "sde.estimate_second_moment_pair"):
        args = tracer.first_args.get(name)
        if args is None:
            continue
        fn = tracer.originals[name]
        elapsed = {}
        for workers in (1, 2):
            t0 = time.perf_counter()
            fn(**dict(args, worker_count=workers))
            elapsed[workers] = time.perf_counter() - t0
        out[f"{name}.speedup_w2"] = elapsed[1] / elapsed[2]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(RUNS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--config")
    ap.add_argument("--master-seed", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args(argv)

    tracer = None
    if a.trace:
        import spans

        tracer = spans.Tracer(run_id=f"{a.workload}-{os.getpid()}")
        spans.install(tracer, spans.TARGETS + spans.acceptance_targets())
    report = {"t_ready": time.monotonic()}
    if not a.setup_only:
        report.update(RUNS[a.workload](a))
        report["cpu_s"] = _cpu_s()
        if tracer is not None:
            layers = spans.layer_metrics(tracer.spans, tracer.counts)
            layers["process.cpu_s"] = report["cpu_s"]
            layers["process.tracing_overhead_s"] = spans.wrapper_cost_s() * len(tracer.spans)
            layers.update(_speedups(tracer))
            report["layers"] = layers
            with open(os.path.join(a.out, "spans.json"), "w", encoding="utf-8") as fh:
                json.dump({"run": tracer.run_id, "fields": list(spans.Span._fields[:5]),
                           "spans": [list(s[:5]) for s in tracer.spans]}, fh)
    with open(a.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
