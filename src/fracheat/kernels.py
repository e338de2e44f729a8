"""Free-space symmetric stable heat kernel via cosine-transform quadrature.

The free kernel with symbol exp(-t |xi|^alpha) is

    p(t, r) = (1/pi) int_0^inf cos(xi r) exp(-t xi^alpha) dxi,

self-similar under r -> t^(1/alpha) r.  It dominates the interval kernel
with exterior-zero condition pointwise, which is the main cross-check this
module supports: the discrete interval kernel from the operator module must
stay below the free kernel up to a discretization allowance.

Quadrature: truncate where the exponential factor drops below 1e-14, split
the range into panels no wider than a quarter cosine period at the given r,
and apply Gauss-Legendre on each panel.  Accuracy is verified by re-running
at a higher order; disagreement raises PrecisionError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .specfun import PrecisionError

__all__ = [
    "stable_density",
    "check_domination",
]

_TRUNC = 14.0 * math.log(10.0)  # exp(-t xi^alpha) < 1e-14 beyond the cut
_ORDER = 10  # Gauss-Legendre points per panel, checked against _ORDER + 6


@functools.lru_cache(maxsize=16)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss-Legendre rule on [-1, 1], computed once per order; read-only."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    gx.flags.writeable = False
    gw.flags.writeable = False
    return gx, gw


def _gl_nodes(alpha: float, t: float, r: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    xi_max = (_TRUNC / t) ** (1.0 / alpha)
    n_panels = int(np.clip(math.ceil(2.0 * xi_max * abs(r) / math.pi), 24, 200_000))
    edges = np.linspace(0.0, xi_max, n_panels + 1)
    # xi^alpha has unbounded curvature at 0 for non-integer alpha; grade the
    # first panel geometrically so Gauss-Legendre keeps spectral accuracy.
    graded = edges[1] * 0.5 ** np.arange(16, 0, -1)
    edges = np.concatenate([[0.0], graded, edges[1:]])
    gx, gw = _gauss_legendre(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def _density_once(alpha: float, t: float, r: float, order: int) -> float:
    nodes, weights = _gl_nodes(alpha, t, r, order)
    vals = weights * np.cos(nodes * r) * np.exp(-t * nodes**alpha)
    return math.fsum(vals.tolist()) / math.pi


def stable_density(alpha: float, t: float, r: float) -> float:
    """p(t, r) for alpha in [1, 2]; alpha = 1 and alpha = 2 are closed-form oracles."""
    alpha = float(alpha)
    t = float(t)
    r = float(abs(r))
    if not (math.isfinite(alpha) and 1.0 <= alpha <= 2.0):
        raise ValueError(f"stable_density requires alpha in [1, 2], got {alpha}")
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"stable_density requires t > 0, got {t}")
    if not math.isfinite(r):
        raise ValueError(f"stable_density requires finite r, got {r}")
    value = _density_once(alpha, t, r, _ORDER)
    refined = _density_once(alpha, t, r, _ORDER + 6)
    scale = max(abs(refined), 1e-13 * t ** (-1.0 / alpha))
    if abs(value - refined) > 1e-10 * scale:
        raise PrecisionError(
            f"stable_density quadrature disagreement {abs(value - refined):.3e} "
            f"at alpha={alpha}, t={t}, r={r} (order {_ORDER} vs {_ORDER + 6})"
        )
    return refined


def check_domination(op, t: float) -> float:
    """Max signed excess of the interval kernel over the free kernel at time t.

    Positive return = violation somewhere on the node grid.  The free kernel
    depends on |x_i - x_j| only, so one density evaluation per distinct
    distance suffices.
    """
    from .laplacian import heat_kernel_matrix

    P = heat_kernel_matrix(op, t)
    n, dx = op.grid.n, op.grid.dx
    dens = np.array([stable_density(op.config.alpha, t, k * dx) for k in range(n)])
    dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return float(np.max(P - dens[dist]))

