"""Discrete fractional Laplacian on an interval with exterior-zero condition.

The operator is the restricted fractional Laplacian: the singular integral

    (D^alpha f)(x) = c(alpha) pv int (f(x+y) - f(x)) / |y|^(1+alpha) dy

applied to functions that vanish outside (0, L).  The normalization

    c(alpha) = 2^alpha Gamma((1+alpha)/2) / (sqrt(pi) |Gamma(-alpha/2)|)

makes the free-space symbol exactly -|xi|^alpha.

Discretization on the uniform node grid x_i = i dx, dx = L/(n+1): the jump
part integrates the kernel exactly over each grid cell, the exterior mass
over (0,L)^c (plus the two half-cell boundary strips, where f vanishes to
leading order) goes onto the diagonal, and the principal-value core of the
self cell is modelled by a second-difference curvature term.  The result is
a symmetric matrix with nonnegative off-diagonal entries, negative diagonal
and nonpositive row sums, so the semigroup it generates is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "OperatorConfig",
    "DiscreteOperator",
    "normalization_constant",
    "build_grid",
    "assemble",
    "heat_kernel_matrix",
    "apply_semigroup",
    "implicit_factor",
]


def normalization_constant(alpha: float) -> float:
    """Closed-form c(alpha) for the free-space symbol -|xi|^alpha."""
    return 2.0**alpha * math.gamma((1.0 + alpha) / 2.0) / (math.sqrt(math.pi) * abs(math.gamma(-alpha / 2.0)))


@dataclass(frozen=True)
class Grid:
    """Uniform interior node grid for (0, L) with a reporting subinterval.

    Nodes are x_i = i*dx for i = 1..n with dx = L/(n+1); the endpoints 0 and
    L carry the exterior condition and are not nodes.  mu in (0, L/2) marks
    the subinterval [mu, L-mu] on which infimum-type moments are taken.
    """

    L: float
    n: int
    mu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValueError(f"grid length must be positive, got {self.L}")
        if not (isinstance(self.n, int) and self.n >= 3):
            raise ValueError(f"grid needs at least 3 interior nodes, got {self.n}")
        if not (math.isfinite(self.mu) and 0.0 < self.mu < self.L / 2.0):
            raise ValueError(f"mu must lie in (0, L/2), got mu={self.mu}, L={self.L}")

    @property
    def dx(self) -> float:
        return self.L / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.dx * np.arange(1, self.n + 1)

    def interior_indices(self) -> np.ndarray:
        """Indices of nodes inside [mu, L-mu] (inclusive, with fp slack)."""
        x = self.nodes
        tol = 1e-12 * self.L
        idx = np.nonzero((x >= self.mu - tol) & (x <= self.L - self.mu + tol))[0]
        if idx.size == 0:
            raise ValueError(f"no grid nodes inside [{self.mu}, {self.L - self.mu}]")
        return idx


def build_grid(L: float, n: int, mu: float) -> Grid:
    return Grid(L=float(L), n=int(n), mu=float(mu))


@dataclass(frozen=True)
class OperatorConfig:
    """Assembly parameters: the jump exponent alpha, in (1, 2)."""

    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled operator with its spectral factorization.

    eigenvalues are ascending (all negative); eigenvectors are orthonormal
    columns with sign fixed so the largest-magnitude component is positive.
    lambda1 = -max(eigenvalues) is the smallest eigenvalue of the positive
    operator, i.e. the slowest decay rate of the semigroup.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    lambda1: float
    grid: Grid
    config: OperatorConfig


def assemble(grid: Grid, cfg: OperatorConfig) -> DiscreteOperator:
    alpha = cfg.alpha
    c = normalization_constant(alpha)
    n, dx, L = grid.n, grid.dx, grid.L
    x = grid.nodes
    h = dx / 2.0

    # Exact kernel integral over the cell at distance k*dx: int r^(-1-alpha) dr.
    k = np.arange(1, n)
    jump = ((k * dx - h) ** (-alpha) - (k * dx + h) ** (-alpha)) / alpha

    dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    A = np.zeros((n, n))
    off = dist > 0
    A[off] = jump[dist[off] - 1]

    # Exterior mass: everything beyond the outermost cell edges, where f = 0.
    tail = ((x - h) ** (-alpha) + (L - h - x) ** (-alpha)) / alpha
    np.fill_diagonal(A, -(A.sum(axis=1) + tail))

    # Principal value over the self cell: (f''(x)/2) * int_{|y|<h} y^2 |y|^(-1-alpha) dy
    # with f'' replaced by the second difference (exterior values are zero).
    coef = h ** (2.0 - alpha) / ((2.0 - alpha) * dx * dx)
    idx = np.arange(n)
    A[idx, idx] -= 2.0 * coef
    A[idx[:-1], idx[:-1] + 1] += coef
    A[idx[:-1] + 1, idx[:-1]] += coef

    A *= c
    A = 0.5 * (A + A.T)  # symmetrize away rounding asymmetry

    w, V = np.linalg.eigh(A)
    sign = np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(n)])
    sign[sign == 0.0] = 1.0
    V = V * sign
    if w[-1] >= 0.0:
        raise ValueError(f"assembled operator is not negative definite: max eigenvalue {w[-1]}")
    return DiscreteOperator(
        matrix=A, eigenvalues=w, eigenvectors=V, lambda1=-float(w[-1]), grid=grid, config=cfg
    )


def heat_kernel_matrix(op: DiscreteOperator, t: float) -> np.ndarray:
    """Node-sampled Dirichlet heat kernel P_D(t): exp(tA)/dx, so P_D(0) = I/dx.

    Chapman-Kolmogorov holds in the node measure: P(s) dx P(t) = P(s+t).
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"heat_kernel_matrix requires t >= 0, got {t}")
    V, w = op.eigenvectors, op.eigenvalues
    return (V * np.exp(t * w)) @ V.T / op.grid.dx


def apply_semigroup(op: DiscreteOperator, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(tA) v at each time of ``t``, one row per time: the heat semigroup
    acting on node samples (P_D(t) v dx)."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError(f"apply_semigroup requires times t >= 0, got {t}")
    V, w = op.eigenvectors, op.eigenvalues
    return (np.exp(np.outer(t, w)) * (V.T @ v)) @ V.T


def implicit_factor(op: DiscreteOperator, dt: float) -> np.ndarray:
    """(I - dt A)^(-1) via the eigendecomposition."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"implicit_factor requires dt > 0, got {dt}")
    V, w = op.eigenvectors, op.eigenvalues
    return (V / (1.0 - dt * w)) @ V.T

