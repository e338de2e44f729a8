"""Time-discretization bias of the scheme against the second-moment oracle.

Runs the conditional Monte Carlo estimator at dt and dt/2 on a shared
Brownian sheet and compares both to the deterministic Volterra solution of
the closed second-moment equation.  With the sampling error common to the
two resolutions, the discrepancy pair isolates the O(dt) bias.  Halving is
still pre-asymptotic at the defaults (dt 1/1024): the exact ratio there is
1.578, and it rises to 1.74, 1.85 and 1.92 only under further halving.

Usage: python scripts/mc_bias_study.py --paths 10000 --workers 4
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from fracheat import bounds
from fracheat.laplacian import OperatorConfig, assemble, build_grid
from fracheat.sde import (
    Discretization,
    ModelParams,
    SigmaSpec,
    estimate_second_moment_pair,
    tent_profile,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=64, help="grid nodes")
    ap.add_argument("--dt", type=float, default=1.0 / 1024.0, help="coarse step")
    ap.add_argument("--t-end", type=float, default=0.5)
    ap.add_argument("--paths", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=31415)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out", default="out/mc_bias", metavar="DIR")
    args = ap.parse_args()

    grid = build_grid(L=1.0, n=args.n, mu=0.1)
    op = assemble(grid, OperatorConfig(alpha=args.alpha))
    params = ModelParams(
        alpha=args.alpha, L=1.0, lam=args.lam,
        sigma=SigmaSpec(kind="linear", l_sigma=1.0, L_sigma=1.0),
        u0=tent_profile(grid), mu=0.1,
    )
    disc = Discretization(
        grid=grid, dt=args.dt, t_end=args.t_end, snapshot_times=(args.t_end,)
    )

    oracle_steps = max(1024, round(args.t_end / args.dt))
    oracle = bounds.second_moment_volterra(
        params, op, grid, T=args.t_end, steps=oracle_steps
    ).m[-1]

    t0 = time.perf_counter()
    coarse, fine = estimate_second_moment_pair(
        params, disc, op,
        n_paths=args.paths, master_seed=args.seed, worker_count=args.workers,
    )
    elapsed = time.perf_counter() - t0

    dc = float(np.max(np.abs(coarse.values - oracle) / oracle))
    df = float(np.max(np.abs(fine.values - oracle) / oracle))
    se_max = float(np.max(coarse.stderr / oracle))
    print(f"paths {args.paths}, {elapsed:.1f}s; max rel stderr {se_max:.3%}")
    print(f"max rel discrepancy  dt={args.dt:g}: {dc:.4%}")
    print(f"max rel discrepancy  dt={args.dt / 2:g}: {df:.4%}")
    print(f"halving ratio {dc / df:.3f}  (exact 1.578 at the defaults; near 2 only at smaller dt)")
    print(f"flagged {coarse.flagged_count}/{fine.flagged_count} of {args.paths}")

    os.makedirs(args.out, exist_ok=True)
    report = {
        "alpha": args.alpha,
        "lambda": args.lam,
        "t_end": args.t_end,
        "dt_coarse": args.dt,
        "n_paths": args.paths,
        "master_seed": args.seed,
        "max_rel_discrepancy_coarse": dc,
        "max_rel_discrepancy_fine": df,
        "halving_ratio": dc / df,
        "max_rel_stderr_coarse": se_max,
        "flagged": [coarse.flagged_count, fine.flagged_count],
        "elapsed_s": round(elapsed, 2),
    }
    path = os.path.join(args.out, "mc_bias.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
