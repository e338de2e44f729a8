"""Scan the fitted excitation index across alpha and compare to 2a/(a-1).

For each alpha this runs acceptance check 8's measurement,
``acceptance.excitation_index``: the deterministic second-moment oracle of
the desk problem at check 8's levels ``acceptance.EXCITATION_LAMBDAS`` by
``bounds.oracle_sweep``, the same sweep that ``fracheat excitation --oracle``
runs, and the index fitted from ln Phi_2(t_end).  Writes a CSV (and
optionally an SVG chart) of the fitted index, its confidence interval, and
the reference curve.

Usage: python scripts/excitation_alpha_scan.py --out out/alpha_scan [--svg]
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from fracheat import svgplot
from fracheat.acceptance import EXCITATION_LAMBDAS, excitation_index


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
    if args.alpha_count < 1:
        ap.error(f"--alpha-count must be at least 1, got {args.alpha_count}")

    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_count)

    rows = []
    print(f"{'alpha':>7} {'e_hat':>8} {'ci_lo':>8} {'ci_hi':>8} {'reference':>10}")
    for alpha in alphas:
        try:
            e_hat, ci = excitation_index(float(alpha), EXCITATION_LAMBDAS, args.n, args.t_end, args.steps)
        except ValueError as exc:
            ap.error(str(exc))
        ref = 2.0 * alpha / (alpha - 1.0)
        rows.append((float(alpha), e_hat, ci[0], ci[1], float(ref)))
        print(f"{alpha:7.3f} {e_hat:8.3f} {ci[0]:8.3f} {ci[1]:8.3f} {ref:10.3f}")

    os.makedirs(args.out, exist_ok=True)
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
