"""Monte-Carlo time stepping for the fractional stochastic heat equation.

Scheme: semi-implicit Euler-Maruyama.  The drift is integrated implicitly
through the cached spectral factor (I - dt A)^(-1) (unconditionally stable;
the stiffest eigenvalue grows like (n/L)^alpha, so explicit stepping would
force dt ~ n^(-alpha)).  The cell white-noise increment enters explicitly as
lambda sigma(u_i) dW_i / dx with dW_i ~ N(0, dt dx), the weak finite-difference
approximation of the Walsh integral; this makes the discrete second moment
match the deterministic Volterra oracle as dx, dt -> 0.

Determinism: path k draws from a generator seeded with SeedSequence
((master_seed, k)); paths are processed in fixed-size blocks by path index
and written to disjoint slices, so results are independent of worker count
and scheduling order.  Paths that go non-finite are flagged, keep their
earlier snapshots, and show NaN afterwards; they are never silently dropped.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .laplacian import DiscreteOperator, Grid, implicit_factor

__all__ = [
    "SigmaSpec",
    "ModelParams",
    "Discretization",
    "PathEnsemble",
    "SecondMomentEstimate",
    "sigma_eval",
    "run_ensemble",
    "estimate_second_moment_pair",
    "tent_profile",
    "default_dt",
]

# paths per work item: fixed, so partitioning never depends on the worker
# count; even, so an antithetic pair never straddles two blocks
_BLOCK = 128


@dataclass(frozen=True)
class SigmaSpec:
    """Noise coefficient with the linear-growth sandwich l|u| <= |sigma(u)| <= L|u|.

    kinds: "linear" (sigma(u) = L_sigma u, l = L), "bounded-linear"
    (sigma(u) = u (l + (L-l)/(1+u^2))), "custom-table" (odd interpolation of
    tabulated values on u >= 0, extended by the ray through the last point).
    """

    kind: str
    l_sigma: float
    L_sigma: float
    table_u: Optional[np.ndarray] = None
    table_values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "bounded-linear", "custom-table"):
            raise ValueError(f"unknown sigma kind {self.kind!r}")
        if not (0.0 < self.l_sigma <= self.L_sigma) or not math.isfinite(self.L_sigma):
            raise ValueError(f"need 0 < l_sigma <= L_sigma, got ({self.l_sigma}, {self.L_sigma})")
        if self.kind == "linear" and self.l_sigma != self.L_sigma:
            raise ValueError("linear sigma requires l_sigma == L_sigma")
        if self.kind == "custom-table":
            if self.table_u is None or self.table_values is None:
                raise ValueError("custom-table sigma requires table_u and table_values")
            tu = np.asarray(self.table_u, dtype=float)
            tv = np.asarray(self.table_values, dtype=float)
            if tu.ndim != 1 or tu.shape != tv.shape or tu.size < 2:
                raise ValueError("sigma table must be matching 1-d arrays with >= 2 points")
            if tu[0] != 0.0 or tv[0] != 0.0 or np.any(np.diff(tu) <= 0.0):
                raise ValueError("sigma table must start at (0, 0) with increasing u")
            object.__setattr__(self, "table_u", tu)
            object.__setattr__(self, "table_values", tv)
            # sandwich and Lipschitz checked by finite differences on nodes and midpoints
            probe = np.sort(np.concatenate([tu[1:], 0.5 * (tu[1:] + tu[:-1])]))
            vals = np.interp(probe, tu, tv)
            ratio = vals / probe
            tol = 1e-9 * self.L_sigma
            if np.any(ratio < self.l_sigma - tol) or np.any(ratio > self.L_sigma + tol):
                raise ValueError("sigma table violates the linear-growth sandwich")
            slopes = np.diff(tv) / np.diff(tu)
            if np.any(np.abs(slopes) > self.L_sigma + tol):
                raise ValueError("sigma table violates the Lipschitz bound")
        elif self.table_u is not None or self.table_values is not None:
            raise ValueError(f"table data is only valid for kind='custom-table', not {self.kind!r}")


def sigma_eval(spec: SigmaSpec, u):
    """sigma(u), elementwise on arrays.  sigma(0) = 0 for every kind."""
    u = np.asarray(u, dtype=float)
    if spec.kind == "linear":
        out = spec.L_sigma * u
    elif spec.kind == "bounded-linear":
        out = u * (spec.l_sigma + (spec.L_sigma - spec.l_sigma) / (1.0 + u * u))
    else:
        a = np.abs(u)
        out = np.sign(u) * np.interp(a, spec.table_u, spec.table_values)
        beyond = a > spec.table_u[-1]
        if np.any(beyond):
            ray = spec.table_values[-1] / spec.table_u[-1]
            out = np.where(beyond, ray * u, out)
    return out if out.ndim else float(out)


def tent_profile(grid: Grid) -> np.ndarray:
    """Default initial condition u0(x) = min(x, L-x) 2/L: continuous, positive inside."""
    x = grid.nodes
    return np.minimum(x, grid.L - x) * 2.0 / grid.L


@dataclass(frozen=True)
class ModelParams:
    """Equation-level inputs: exponent, domain, noise level and coefficient, u0, moment order."""

    alpha: float
    L: float
    lam: float
    sigma: SigmaSpec
    u0: np.ndarray
    mu: float
    p: float = 2.0

    def __post_init__(self) -> None:
        if not (1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        if not (self.L > 0.0 and 0.0 < self.mu < 0.5 * self.L):
            raise ValueError(f"need L > 0 and mu in (0, L/2), got L={self.L}, mu={self.mu}")
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must be a finite nonnegative real, got {self.lam}")
        u0 = np.asarray(self.u0, dtype=float)
        if u0.ndim != 1 or not np.all(np.isfinite(u0)) or np.any(u0 < 0.0):
            raise ValueError("u0 must be a finite nonnegative 1-d profile")
        object.__setattr__(self, "u0", u0)
        if self.p < 2.0:
            raise ValueError(f"moment order p must be >= 2, got {self.p}")
        threshold = 2.0 / (self.alpha - 1.0)
        if self.p <= threshold:
            warnings.warn(
                f"p={self.p} is at or below 2/(alpha-1)={threshold:.4g}; the moment "
                "growth/decay theorems assume p above this threshold",
                stacklevel=2,
            )

    def check_grid(self, grid: Grid) -> None:
        """L and mu must be the grid's, and u0 sampled on it and positive on its window [mu, L-mu]."""
        if self.u0.shape != (grid.n,):
            raise ValueError(f"u0 has {self.u0.size} nodes but the grid has {grid.n}")
        if abs(self.L - grid.L) > 1e-12 * self.L:
            raise ValueError(f"params.L={self.L} does not match grid.L={grid.L}")
        if abs(self.mu - grid.mu) > 1e-12 * self.L:
            raise ValueError(f"params.mu={self.mu} does not match grid.mu={grid.mu}")
        if float(np.min(self.u0[grid.interior_indices()])) <= 0.0:
            raise ValueError(f"u0 must be strictly positive on [mu, L-mu] = [{self.mu}, {self.L - self.mu}]")


@dataclass(frozen=True)
class Discretization:
    """Time grid: step, horizon, and snapshot times snapped to step multiples."""

    grid: Grid
    dt: float
    t_end: float
    snapshot_times: tuple = ()

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and self.t_end > 0.0 and self.dt <= self.t_end):
            raise ValueError(f"need 0 < dt <= t_end, got dt={self.dt}, t_end={self.t_end}")
        snaps = tuple(float(t) for t in self.snapshot_times)
        if any(t < 0.0 or t > self.t_end + 0.5 * self.dt for t in snaps):
            raise ValueError(f"snapshot times must lie in [0, t_end], got {snaps}")
        if sorted(snaps) != list(snaps):
            raise ValueError("snapshot times must be sorted")
        steps = self.n_steps()
        idx = tuple(min(int(round(t / self.dt)), steps) for t in snaps)
        if len(set(idx)) != len(idx):
            raise ValueError("snapshot times collide after snapping to the step grid")
        object.__setattr__(self, "snapshot_times", tuple(i * self.dt for i in idx))
        object.__setattr__(self, "_snap_steps", idx)

    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def snapshot_steps(self) -> tuple:
        return self._snap_steps


def default_dt(op: DiscreteOperator) -> float:
    """Accuracy-motivated default 0.1/lambda1 (the implicit step is stable for any dt)."""
    return 0.1 / op.lambda1


@dataclass(frozen=True)
class PathEnsemble:
    """Snapshot store: shape (n_snapshots, n_paths, n) plus per-path blow-up flags."""

    n_paths: int
    master_seed: int
    snapshot_times: tuple
    snapshots: np.ndarray
    flagged: np.ndarray
    params: ModelParams
    disc: Discretization

    @property
    def grid(self) -> Grid:
        return self.disc.grid

    @property
    def flagged_count(self) -> int:
        return int(np.count_nonzero(self.flagged))

    @property
    def flagged_fraction(self) -> float:
        return self.flagged_count / self.n_paths

    def snapshot(self, t: float) -> np.ndarray:
        for k, s in enumerate(self.snapshot_times):
            if abs(s - t) <= 1e-9 * max(1.0, abs(t)):
                return self.snapshots[k]
        raise ValueError(f"t={t} is not a snapshot time; have {self.snapshot_times}")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("path,t,x,u\n")
            nodes = [float(v) for v in self.disc.grid.nodes]
            for k, t in enumerate(self.snapshot_times):
                block = self.snapshots[k]
                for p in range(self.n_paths):
                    row = block[p]
                    for i, x in enumerate(nodes):
                        fh.write(f"{p},{float(t)!r},{x!r},{float(row[i])!r}\n")

    def write_metadata_json(self, path) -> None:
        meta = {
            "n_paths": self.n_paths,
            "master_seed": self.master_seed,
            "snapshot_times": list(self.snapshot_times),
            "flagged_count": self.flagged_count,
            "model": {
                "alpha": self.params.alpha,
                "L": self.params.L,
                "lambda": self.params.lam,
                "mu": self.params.mu,
                "p": self.params.p,
                "sigma_kind": self.params.sigma.kind,
                "l_sigma": self.params.sigma.l_sigma,
                "L_sigma": self.params.sigma.L_sigma,
            },
            "discretization": {
                "n": self.disc.grid.n,
                "L": self.disc.grid.L,
                "mu": self.disc.grid.mu,
                "dt": self.disc.dt,
                "t_end": self.disc.t_end,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _path_generator(master_seed: int, k: int) -> np.random.Generator:
    # the stated pure function (master_seed, path index) -> RNG stream
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, k))))


def _map_blocks(fn: Callable, n_paths: int, worker_count: int) -> list:
    """fn(block) over fixed _BLOCK-path ranges, serially or on threads; results in block order."""
    blocks = [range(lo, min(lo + _BLOCK, n_paths)) for lo in range(0, n_paths, _BLOCK)]
    if worker_count == 1 or len(blocks) == 1:
        return [fn(blk) for blk in blocks]
    with ThreadPoolExecutor(max_workers=worker_count) as pool:
        return list(pool.map(fn, blocks))


def _draw_sheet(master_seed: int, blk: range, steps: int, n: int, antithetic: bool) -> np.ndarray:
    """Standard-normal sheet (len(blk), steps, n); path k reads stream (master_seed, k).

    With ``antithetic`` the pair (2j, 2j+1) reads stream j once: row 2j holds
    it and row 2j+1 its negation.
    """
    z = np.empty((len(blk), steps, n))
    stride = 2 if antithetic else 1
    for row in range(0, len(blk), stride):
        _path_generator(master_seed, blk[row] // stride).standard_normal(out=z[row])
        if antithetic:
            np.negative(z[row], out=z[row + 1])
    return z


def _run_block(
    params: ModelParams,
    disc: Discretization,
    op: DiscreteOperator,
    path_indices: range,
    master_seed: int,
    out: np.ndarray,
    flagged: np.ndarray,
) -> None:
    n = disc.grid.n
    steps = disc.n_steps()
    B = len(path_indices)
    noise = _draw_sheet(master_seed, path_indices, steps, n, antithetic=False)
    noise *= math.sqrt(disc.dt * disc.grid.dx)

    factor_T = implicit_factor(op, disc.dt).T
    snap_steps = disc.snapshot_steps()
    snap_lookup = {s: i for i, s in enumerate(snap_steps)}
    u = np.tile(params.u0, (B, 1))
    alive = np.ones(B, dtype=bool)
    lam = params.lam

    def record(step_index: int) -> None:
        j = snap_lookup.get(step_index)
        if j is None:
            return
        snap = u.copy()
        snap[~alive] = np.nan
        out[j, path_indices.start : path_indices.stop] = snap

    record(0)
    # overflow here is an expected outcome (the path gets flagged), not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            forced = u + lam * sigma_eval(params.sigma, u) * noise[:, s, :] / disc.grid.dx
            u = forced @ factor_T
            bad = alive & ~np.all(np.isfinite(u), axis=1)
            if np.any(bad):
                alive &= ~bad
                u[bad] = 0.0  # quarantine so later matmuls stay finite; snapshots show NaN
            record(s + 1)
    flagged[path_indices.start : path_indices.stop] = ~alive


def run_ensemble(
    params: ModelParams,
    disc: Discretization,
    op: DiscreteOperator,
    n_paths: int,
    master_seed: int,
    worker_count: int = 1,
) -> PathEnsemble:
    """Simulate n_paths independent paths; deterministic in (master_seed, path index)."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")
    params.check_grid(disc.grid)
    if disc.dt * op.lambda1 > 10.0:
        raise ValueError(
            f"dt lambda1 = {disc.dt * op.lambda1:.3g} > 10; refine dt (default_dt suggests {default_dt(op):.3g})"
        )
    out = np.empty((len(disc.snapshot_times), n_paths, disc.grid.n))
    flagged = np.zeros(n_paths, dtype=bool)
    _map_blocks(
        lambda blk: _run_block(params, disc, op, blk, master_seed, out, flagged),
        n_paths, worker_count,
    )
    return PathEnsemble(
        n_paths=n_paths,
        master_seed=master_seed,
        snapshot_times=disc.snapshot_times,
        snapshots=out,
        flagged=flagged,
        params=params,
        disc=disc,
    )


# ---------------------------------------------------------------------------
# Variance-reduced second-moment estimation
#
# E|u(t,x)|^2 under multiplicative noise is carried by rare high peaks (weak
# intermittency): the per-path spread of u^2 is several times its mean, so a
# direct sample average at feasible path counts is dominated by whether the
# draw happened to contain the peaks.  The estimator below removes most of
# that variance while staying an unbiased function of genuinely simulated
# paths:
#
#   * conditioning: paths are simulated only to an intermediate time t*, and
#     the remaining [t*, t] noise is integrated out exactly.  For linear
#     sigma the scheme's conditional second moment at time t given the state
#     v at t* is the quadratic form v' A_x v, where A_x is the adjoint
#     propagation of e_x e_x' through the per-step second-moment map
#     C -> M (C + c diag diag C) M'.
#   * antithetic pairing of the driving sheets.
#   * a control variate: the quadratic form evaluated on the second-order
#     noise expansion y = g + ell + q (deterministic flow, first and second
#     Wiener-chaos terms) is subtracted pathwise and its exact mean
#     g'Ag + tr(A E[ll']) + tr(A E[qq']) is added back.
#
# The A_x matrices depend on dt exactly as the simulation does, so the
# estimator retains the scheme's full time-discretization bias; only
# sampling noise is suppressed.


@dataclass(frozen=True)
class SecondMomentEstimate:
    """Per-node estimate of E|u(t,x)|^2 with sampling standard errors."""

    t: float
    dt: float
    values: np.ndarray
    stderr: np.ndarray
    n_paths: int
    flagged_count: int
    conditioning_time: float


def _conditional_forms(params, op, grid, dt, n_steps, cond_steps):
    """Adjoint quadratic forms A_x at t* and the exact chaos<=2 means.

    Returns (M^T, g, A, cv_mean) with g the deterministic flow sampled at
    the conditioning steps and cv_mean[x] = E[(g* + ell + q)' A_x (g* + ell + q)].
    """
    lam_sig = params.lam * params.sigma.L_sigma
    M = implicit_factor(op, dt)
    MT = M.T
    c = lam_sig**2 * dt / grid.dx
    proj = op.eigenvectors.T @ params.u0
    tgrid = dt * np.arange(cond_steps + 1)
    g = (np.exp(np.outer(tgrid, op.eigenvalues)) * proj) @ op.eigenvectors.T

    n = grid.n
    idx = np.arange(n)
    A = np.zeros((n, n, n))
    A[idx, idx, idx] = 1.0
    for _ in range(n_steps - cond_steps):
        B = MT[None, :, :] @ A @ M[None, :, :]
        B[:, idx, idx] *= 1.0 + c
        A = B

    Lam = np.zeros((n, n))
    Q = np.zeros((n, n))
    for k in range(cond_steps):
        Q = M @ (Q + c * np.diag(np.diag(Lam))) @ MT
        Lam = M @ (Lam + c * np.diag(g[k] ** 2)) @ MT
    gs = g[cond_steps]
    cv_mean = (
        np.einsum("i,xij,j->x", gs, A, gs)
        + np.einsum("xij,ij->x", A, Lam)
        + np.einsum("xij,ij->x", A, Q)
    )
    return MT, g, A, cv_mean


def _rb_branch(u0, noise, lam, dx, MT, g):
    """March u, ell (first chaos), q (second chaos) through one noise sheet."""
    nb = noise.shape[0]
    u = np.tile(u0, (nb, 1))
    ell = np.zeros_like(u)
    q = np.zeros_like(u)
    for s in range(noise.shape[1]):
        dW = noise[:, s, :] / dx
        q = (q + lam * ell * dW) @ MT
        ell = (ell + lam * g[s] * dW) @ MT
        u = (u + lam * u * dW) @ MT
    return u, g[noise.shape[1]] + ell + q


def estimate_second_moment_pair(
    params: ModelParams,
    disc: Discretization,
    op: DiscreteOperator,
    n_paths: int,
    master_seed: int,
    worker_count: int = 1,
) -> tuple:
    """Estimate E|u(t_end, x)|^2 per node at dt and dt/2 on one Brownian sheet.

    Antithetic pairs of paths are simulated to the conditioning time
    t_end/8 (at least one coarse step) and the remainder is closed exactly;
    see the module comment above.  The coarse increments are sums of
    consecutive fine ones, so the sampling error is nearly common to both
    resolutions and the pair of discrepancies against a deterministic
    reference isolates the time-discretization bias.  Linear sigma and an
    even n_paths only.  Returns (coarse, fine).
    """
    if params.sigma.kind != "linear":
        raise ValueError(
            "conditional second-moment estimation requires linear sigma; "
            f"got kind={params.sigma.kind!r}"
        )
    params.check_grid(disc.grid)
    if n_paths < 2 or n_paths % 2 != 0:
        raise ValueError(f"antithetic pairing needs an even n_paths >= 2, got {n_paths}")
    grid = disc.grid
    steps = disc.n_steps()
    cond = max(1, steps // 8)
    fine = Discretization(
        grid=grid, dt=0.5 * disc.dt, t_end=disc.t_end, snapshot_times=disc.snapshot_times
    )
    forms = (
        _conditional_forms(params, op, grid, disc.dt, steps, cond),
        _conditional_forms(params, op, grid, fine.dt, 2 * steps, 2 * cond),
    )
    scale = math.sqrt(fine.dt * grid.dx)
    lam = params.lam * params.sigma.L_sigma

    def run_blk(blk):
        z = _draw_sheet(master_seed, blk, 2 * cond, grid.n, antithetic=True)
        sums = []
        for (MT, g, A, _cv), stride in zip(forms, (2, 1)):
            w = (z if stride == 1 else z[:, 0::2, :] + z[:, 1::2, :]) * scale
            u, y = _rb_branch(params.u0, w, lam, grid.dx, MT, g)
            alive = np.all(np.isfinite(u), axis=1)
            vals = np.einsum("pi,xij,pj->px", u, A, u, optimize=True) - np.einsum(
                "pi,xij,pj->px", y, A, y, optimize=True
            )
            vals = vals[alive]
            sums.append((vals.sum(axis=0), (vals**2).sum(axis=0), int(alive.sum())))
        return sums

    partial = _map_blocks(run_blk, n_paths, worker_count)
    out = []
    for which, (d, (_MT, _g, _A, cv)) in enumerate(zip((disc, fine), forms)):
        acc = sum(p[which][0] for p in partial)
        acc2 = sum(p[which][1] for p in partial)
        total = sum(p[which][2] for p in partial)
        mean = acc / total
        var = np.maximum(acc2 / total - mean**2, 0.0)
        out.append(
            SecondMomentEstimate(
                t=d.t_end,
                dt=d.dt,
                values=mean + cv,
                stderr=np.sqrt(var / total),
                n_paths=n_paths,
                flagged_count=n_paths - total,
                conditioning_time=cond * disc.dt,
            )
        )
    return out[0], out[1]
