"""Scan the fitted excitation index across alpha and compare to 2a/(a-1).

For each alpha the deterministic second-moment oracle is evaluated on a
geometric lambda grid by ``bounds.oracle_sweep``, the same sweep that
``fracheat excitation --oracle`` and acceptance check 8 run, and the index
is fitted from ln Phi_2(t_end).  The sweep takes alpha, L and mu from the
operator, with tent u0, linear sigma and p = 2.  Writes a CSV (and optionally an SVG chart)
of the fitted index, its confidence interval, and the reference curve.

Usage: python scripts/excitation_alpha_scan.py --out out/alpha_scan [--svg]
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from fracheat import bounds, moments, svgplot
from fracheat.laplacian import OperatorConfig, assemble, build_grid
from fracheat.sde import SigmaSpec, tent_profile


def fit_index_for_alpha(
    alpha: float, lambdas: np.ndarray, n: int, t_end: float, steps: int
) -> tuple:
    grid = build_grid(L=1.0, n=n, mu=0.1)
    op = assemble(grid, OperatorConfig(alpha=alpha))
    sigma = SigmaSpec(kind="linear", l_sigma=1.0, L_sigma=1.0)
    curves = bounds.oracle_sweep(op, tent_profile(grid), sigma, lambdas, T=t_end, steps=steps)
    return moments.fit_excitation_from_log(
        [(lam, float(c.log_phi2()[-1])) for lam, c in curves.items()]
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha-min", type=float, default=1.2)
    ap.add_argument("--alpha-max", type=float, default=1.9)
    ap.add_argument("--alpha-count", type=int, default=8)
    ap.add_argument("--n", type=int, default=64, help="grid nodes")
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=256, help="oracle time steps")
    ap.add_argument("--out", default="out/alpha_scan", metavar="DIR")
    ap.add_argument("--svg", action="store_true", help="also write a chart")
    args = ap.parse_args()

    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_count)
    lambdas = np.geomspace(8.0, 128.0, 5)
    os.makedirs(args.out, exist_ok=True)

    rows = []
    print(f"{'alpha':>7} {'e_hat':>8} {'ci_lo':>8} {'ci_hi':>8} {'reference':>10}")
    for alpha in alphas:
        e_hat, ci = fit_index_for_alpha(
            float(alpha), lambdas, args.n, args.t_end, args.steps
        )
        ref = 2.0 * alpha / (alpha - 1.0)
        rows.append((float(alpha), e_hat, ci[0], ci[1], float(ref)))
        print(f"{alpha:7.3f} {e_hat:8.3f} {ci[0]:8.3f} {ci[1]:8.3f} {ref:10.3f}")

    csv_path = os.path.join(args.out, "alpha_scan.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("alpha,e_hat,ci_lo,ci_hi,reference\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    print(f"wrote {csv_path}")

    if args.svg:
        a = np.array([r[0] for r in rows])
        chart = svgplot.line_chart(
            [
                svgplot.Series("fitted e(alpha)", a, np.array([r[1] for r in rows])),
                svgplot.Series("2 alpha/(alpha-1)", a, np.array([r[4] for r in rows])),
            ],
            title=f"Excitation index vs alpha (t={args.t_end:g})",
            xlabel="alpha",
            ylabel="excitation index",
            markers=True,
        )
        svg_path = os.path.join(args.out, "alpha_scan.svg")
        svgplot.write_svg(svg_path, chart)
        print(f"wrote {svg_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
