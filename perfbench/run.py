#!/usr/bin/env python3
"""Benchmark for fracheat: times the commands users run and the layers beneath them.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every workload run is a fresh child process
(``child.py``), spawned one at a time: a closed loop with one client.  The
parent times each child from spawn to exit, reads its peak RSS from
``os.wait4``, checks its outputs after it has exited, and compares output
checksums against every other run of the same seed on the same sources.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the traced child and prints the per-layer metrics.  Each run writes a
results file with a machine and provenance record under .perfbench_out/.
The last line of standard output is one JSON object; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 8        # setup-only children per untraced run
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def quartiles(values) -> dict:
    v = sorted(values)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    return {"median": statistics.median(v), "q1": q1, "q3": q3, "n": len(v)}


# ---------------------------------------------------------------------------
# Provenance


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning dicts
        return {"name": None, "version": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_sha256(src: str) -> str:
    """Digest of every .py file under src/fracheat, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "fracheat", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def provenance(root: str, src: str) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": source_sha256(src),
    }


# ---------------------------------------------------------------------------
# Children


class Child(NamedTuple):
    """A finished child: wall time from spawn to exit, exit code, peak RSS, its report."""

    wall_s: float
    rc: int
    peak_rss_mb: float
    report: Optional[dict]


def spawn(root: str, env: dict, argv: list, work: str) -> Child:
    os.makedirs(work, exist_ok=True)
    report_path = os.path.join(work, "report.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + argv + [
        "--out", work, "--report", report_path]
    with open(os.path.join(work, "child.log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["setup_s"] = report["t_ready"] - t0
    return Child(wall, rc, ru.ru_maxrss / 1024.0, report)


def child_args(workload: str, seed: int, work: str, trace: bool) -> list:
    import workloads

    argv = [workload]
    doc = workloads.config(workload, seed)
    if doc is not None:
        path = os.path.join(work, "config.json")
        os.makedirs(work, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        argv += ["--config", path]
    if workload == "mc-oracle":
        argv += ["--master-seed", str(workloads.master_seed(workload, seed))]
    if trace:
        argv.append("--trace")
    return argv


# ---------------------------------------------------------------------------
# One workload


def _determinism(root: str, workload: str, seed: int, src_sha: str, sums: dict) -> tuple:
    """Compare with the checksums stored by earlier runs of this seed on these sources."""
    path = os.path.join(root, OUT_DIR, "checksums", f"{workload}-seed{seed}-{src_sha[:16]}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sums, fh, indent=1, sort_keys=True)
        return True, "first run of this seed on these sources; checksums stored"
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    moved = sorted(k for k in set(stored) | set(sums) if stored.get(k) != sums.get(k))
    return not moved, "same as earlier runs" if not moved else f"differs from earlier runs in {moved}"


def run_workload(root: str, src: str, spec: dict, workload: str, seed: int,
                 seconds: float, trace: bool, prov: dict) -> dict:
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    work = os.path.join(root, OUT_DIR, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    env["TMPDIR"] = os.path.join(work, "tmp")  # check 9 writes a temporary CSV
    os.makedirs(env["TMPDIR"])
    argv = child_args(workload, seed, work, trace)
    doc = workloads.config(workload, seed)

    setups = []
    ops = []                      # (operation, ok, detail)
    iterations = []
    first_sums = None
    if not trace:
        for k in range(SETUP_PROBES):
            c = spawn(root, env, argv + ["--setup-only"], os.path.join(work, f"probe{k}"))
            ops.append((f"setup probe {k}", c.rc == 0 and c.report is not None, f"exit {c.rc}"))
            if c.report is not None:
                setups.append(c.report["setup_s"])

    t_start = time.monotonic()
    while True:
        it_dir = os.path.join(work, f"it{len(iterations)}")
        c = spawn(root, env, argv, it_dir)
        it = {"wall_s": c.wall_s, "exit": c.rc, "peak_rss_mb": c.peak_rss_mb}
        ok = c.rc == 0 and c.report is not None
        ops.append(("child run", ok, f"exit {c.rc}" + ("" if c.report else ", no report")))
        if ok:
            it.update(setup_s=c.report["setup_s"], cpu_s=c.report["cpu_s"])
            setups.append(c.report["setup_s"])
            try:
                checks = workloads.CHECKS[workload](it_dir, c.report, doc, seed)
                sums = workloads.checksums(workload, it_dir)
                if workload == "mc-oracle":
                    it["mc_rel_err"] = 100.0 * workloads.check4_gaps(it_dir)[0]
            except Exception:  # missing or malformed outputs: a failed operation, run goes on
                checks, sums = [("read outputs", False, traceback.format_exc(limit=3))], None
            ops += checks
            if sums is not None:
                if first_sums is None:
                    first_sums = sums
                    ops.append(("determinism across runs",
                                *_determinism(root, workload, seed, prov["source_sha256"], sums)))
                else:
                    ops.append(("determinism within run", sums == first_sums,
                                "same checksums as the first iteration" if sums == first_sums
                                else "checksums differ from the first iteration"))
            if trace:
                layers = dict(c.report["layers"])
                if "mc_rel_err" in it:
                    layers["sde.estimate_second_moment_pair.mc_rel_err"] = it["mc_rel_err"]
                it["layers"] = layers
                spans_path = os.path.join(it_dir, "spans.json")
                dest = os.path.join(root, OUT_DIR, "traces",
                                    f"{workload}-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}"
                                    f"-{os.getpid()}-it{len(iterations)}.json")
                os.makedirs(os.path.dirname(dest), exist_ok=True)
                shutil.move(spans_path, dest)
        iterations.append(it)
        shutil.rmtree(it_dir, ignore_errors=True)
        elapsed = time.monotonic() - t_start
        if elapsed + statistics.median(i["wall_s"] for i in iterations) > seconds:
            break
    shutil.rmtree(work, ignore_errors=True)

    failed = sum(not ok for _, ok, _ in ops)
    summary = {
        "wall_s": quartiles([i["wall_s"] for i in iterations]),
        "peak_rss_mb": quartiles([i["peak_rss_mb"] for i in iterations]),
    }
    if setups:
        summary["setup_s"] = quartiles(setups)
    if any("mc_rel_err" in i for i in iterations):
        summary["mc_rel_err"] = quartiles([i["mc_rel_err"] for i in iterations if "mc_rel_err" in i])
    if trace:
        names = spec["per_layer"]
        traced = [i["layers"] for i in iterations if "layers" in i]
        metrics = {
            m["name"]: {
                "value": statistics.median([t.get(m["name"], 0.0) for t in traced]) if traced else 0.0,
                "unit": m["unit"],
            }
            for m in names
        }
    else:
        values = {
            "wall_s": summary["wall_s"]["median"],
            "setup_s": summary["setup_s"]["median"] if setups else 0.0,
            "peak_rss_mb": summary["peak_rss_mb"]["median"],
            "ok_frac": (len(ops) - failed) / len(ops),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "master_seed": workloads.master_seed(workload, seed),
        "provenance": prov, "summary": summary, "setup_probes_s": setups,
        "iterations": iterations, "checksums": first_sums,
        "operations": [{"op": o, "ok": ok, "detail": d} for o, ok, d in ops],
        "result": result,
    }
    res_dir = os.path.join(root, OUT_DIR, "results")
    os.makedirs(res_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(res_dir, f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _print_summary(workload, summary, ops, metrics)
    return result


def _print_summary(workload: str, summary: dict, ops: list, metrics: dict) -> None:
    print(f"== {workload}")
    for name, q in summary.items():
        print(f"   {name:12s} median {q['median']:.6g}  q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  n={q['n']}")
    for o, ok, d in ops:
        if not ok:
            print(f"   FAILED {o}: {d}")
    for name, m in metrics.items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fracheat benchmark (see perfbench/NOTES.md)")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "fracheat", "__init__.py")) or not os.path.isfile(spec_path):
        print("perfbench: run from the repository root (need src/fracheat and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import fracheat

    if not os.path.abspath(fracheat.__file__).startswith(os.path.join(src, "")):
        print(f"perfbench: imported fracheat from {fracheat.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(workloads.NAMES) if a.workload == "all" else [a.workload]
    unknown = [n for n in names if n not in workloads.NAMES]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    prov = provenance(root, src)
    results = {n: run_workload(root, src, spec, n, a.seed, seconds, bool(a.trace), prov) for n in names}
    if len(results) == 1:
        line = next(iter(results.values()))
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
