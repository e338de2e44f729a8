"""Minimal SVG line charts with no plotting dependency.

Output is well-formed XML that browsers render directly: fixed canvas,
axis ticks, a legend block, and exactly one polyline per data series.
Reference lines (fits, theoretical slopes) are drawn as dashed ``<line>``
elements so the polyline count always equals the series count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["Series", "RefLine", "line_chart", "moment_chart", "excitation_chart", "write_svg"]

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_MARGIN = (70.0, 20.0, 42.0, 56.0)  # left, right, top, bottom


@dataclass(frozen=True)
class Series:
    """One named curve; points with non-finite values are dropped rather
    than breaking the chart."""

    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError(f"series {self.label!r}: x and y must be equal-length 1-d arrays")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class RefLine:
    """Straight line y = slope*x + intercept in chart coordinates."""

    slope: float
    intercept: float
    label: str


def _escape(s: str) -> str:
    return (
        str(s)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _tick_values(lo: float, hi: float, target: int = 6) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw), default=10.0) * mag
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def line_chart(
    series: Sequence[Series],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    ref_lines: Sequence[RefLine] = (),
    markers: bool = False,
    width: int = 760,
    height: int = 500,
) -> str:
    """Render the chart and return the SVG document as a string."""
    if not series:
        raise ValueError("line_chart needs at least one series")
    ml, mr, mt, mb = _MARGIN
    pw, ph = width - ml - mr, height - mt - mb

    cleaned: list[tuple[str, np.ndarray, np.ndarray]] = []
    for s in series:
        keep = np.isfinite(s.x) & np.isfinite(s.y)
        cleaned.append((s.label, s.x[keep], s.y[keep]))
    xs = np.concatenate([c[1] for c in cleaned]) if cleaned else np.array([0.0])
    ys = np.concatenate([c[2] for c in cleaned])
    if xs.size == 0:
        raise ValueError("no plottable points after filtering non-finite values")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    for r in ref_lines:
        for xe in (x_lo, x_hi):
            ye = r.slope * xe + r.intercept
            y_lo, y_hi = min(y_lo, ye), max(y_hi, ye)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return mt + (y_hi - y) / (y_hi - y_lo) * ph

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">'
    )
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')
    out.append(
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">'
        f"{_escape(title)}</text>"
    )

    for tx in _tick_values(x_lo, x_hi):
        X = px(tx)
        out.append(
            f'<line x1="{X:.2f}" y1="{mt:.2f}" x2="{X:.2f}" y2="{mt + ph:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{X:.2f}" y="{mt + ph + 18:.2f}" text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _tick_values(y_lo, y_hi):
        Y = py(ty)
        out.append(
            f'<line x1="{ml:.2f}" y1="{Y:.2f}" x2="{ml + pw:.2f}" y2="{Y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{ml - 8:.2f}" y="{Y + 4:.2f}" text-anchor="end">{_fmt(ty)}</text>'
        )
    out.append(
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{pw:.2f}" height="{ph:.2f}" '
        'fill="none" stroke="#333333"/>'
    )
    out.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 14:.1f}" text-anchor="middle">'
        f"{_escape(xlabel)}</text>"
    )
    out.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{_escape(ylabel)}</text>'
    )

    for r in ref_lines:
        y1, y2 = r.slope * x_lo + r.intercept, r.slope * x_hi + r.intercept
        out.append(
            f'<line x1="{px(x_lo):.2f}" y1="{py(y1):.2f}" x2="{px(x_hi):.2f}" y2="{py(y2):.2f}" '
            'stroke="#555555" stroke-width="1.2" stroke-dasharray="6 4"/>'
        )

    for k, (label, x, y) in enumerate(cleaned):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        if markers:
            for a, b in zip(x, y):
                out.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" fill="{color}"/>')

    ly = mt + 14.0
    for k, (label, _, _) in enumerate(cleaned):
        color = PALETTE[k % len(PALETTE)]
        out.append(
            f'<line x1="{ml + pw - 150:.2f}" y1="{ly - 4:.2f}" x2="{ml + pw - 126:.2f}" '
            f'y2="{ly - 4:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{ml + pw - 120:.2f}" y="{ly:.2f}">{_escape(label)}</text>')
        ly += 16.0
    for r in ref_lines:
        out.append(
            f'<line x1="{ml + pw - 150:.2f}" y1="{ly - 4:.2f}" x2="{ml + pw - 126:.2f}" '
            f'y2="{ly - 4:.2f}" stroke="#555555" stroke-width="1.2" stroke-dasharray="6 4"/>'
        )
        out.append(f'<text x="{ml + pw - 120:.2f}" y="{ly:.2f}">{_escape(r.label)}</text>')
        ly += 16.0

    out.append("</svg>")
    return "\n".join(out) + "\n"


def moment_chart(
    t: np.ndarray,
    curves: Sequence[tuple[float, np.ndarray]],
    *,
    p: float,
    title: str = "Moment growth",
) -> str:
    """asinh(ln Phi_p) against time, one curve per noise level.

    ``curves`` pairs each lambda with its ln Phi_p values.  ln Phi_p grows
    like lambda^(2 alpha/(alpha-1)), so on a linear axis the largest lambda
    would flatten every other curve.  asinh is linear near 0 and
    logarithmic far from it, so decaying (ln Phi_p < 0) and fast-growing
    curves both show."""
    series = [Series(label=f"lambda={lam:g}", x=np.asarray(t), y=np.arcsinh(v)) for lam, v in curves]
    return line_chart(series, title=title, xlabel="t", ylabel=f"asinh(ln Phi_{p:g})")


def excitation_chart(
    log_lam: np.ndarray,
    loglog_phi: np.ndarray,
    *,
    fitted_slope: float,
    fitted_intercept: float,
    reference_slope: float,
    title: str = "Noise excitation",
) -> str:
    """log log Phi against log lambda with the fitted line and the predicted
    reference slope anchored at the first data point."""
    log_lam = np.asarray(log_lam, dtype=float)
    loglog_phi = np.asarray(loglog_phi, dtype=float)
    refs = [
        RefLine(fitted_slope, fitted_intercept, f"fit slope {fitted_slope:.3f}"),
        RefLine(
            reference_slope,
            float(loglog_phi[0] - reference_slope * log_lam[0]),
            f"reference slope {reference_slope:.3f}",
        ),
    ]
    series = [Series(label="measured", x=log_lam, y=loglog_phi)]
    return line_chart(
        series,
        title=title,
        xlabel="log lambda",
        ylabel="log log Phi",
        ref_lines=refs,
        markers=True,
    )


def write_svg(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
