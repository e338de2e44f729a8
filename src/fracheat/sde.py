"""Monte-Carlo time stepping for the fractional stochastic heat equation.

Scheme: semi-implicit Euler-Maruyama.  The drift is integrated implicitly
through the spectral factor (I - dt A)^(-1) (unconditionally stable;
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

import contextlib
import ctypes
import functools
import glob
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .laplacian import DiscreteOperator, Grid, apply_semigroup, implicit_factor

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
# time steps of noise a block draws at once: its noise buffer is
# _BLOCK * _NOISE_CHUNK * n doubles whatever the horizon; even, so a coarse
# increment of the pair estimator (two consecutive fine ones) never straddles
# two chunks
_NOISE_CHUNK = 64
# bound on one chunk of the quadratic-form contraction's outer products (1 MB)
_CONTRACT_DOUBLES = 1 << 17
# ensemble CSV rows formatted per write: their strings are all the memory the
# writer holds, so it stays flat in the number of paths
_CSV_BLOCK_ROWS = 4096


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

    def check_operator(self, op: DiscreteOperator) -> None:
        """alpha must be the operator's, L and mu its grid's, and u0 sampled on
        that grid and positive on its window [mu, L-mu]."""
        grid = op.grid
        if self.u0.shape != (grid.n,):
            raise ValueError(f"u0 has {self.u0.size} nodes but the grid has {grid.n}")
        if self.alpha != op.config.alpha:
            raise ValueError(f"params.alpha={self.alpha} does not match op.config.alpha={op.config.alpha}")
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

    def snapshot(self, t: float) -> np.ndarray:
        for k, s in enumerate(self.snapshot_times):
            if abs(s - t) <= 1e-9 * max(1.0, abs(t)):
                return self.snapshots[k]
        raise ValueError(f"t={t} is not a snapshot time; have {self.snapshot_times}")

    def write_csv(self, path) -> None:
        """One ``path,t,x,u`` row per (snapshot, path, node) with repr floats,
        written in blocks of about ``_CSV_BLOCK_ROWS`` rows so memory stays
        flat in the number of paths."""
        nodes = [repr(float(v)) for v in self.disc.grid.nodes]
        per_block = max(1, _CSV_BLOCK_ROWS // len(nodes))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("path,t,x,u\n")
            for k, t in enumerate(self.snapshot_times):
                tails = [f",{float(t)!r},{x}," for x in nodes]
                for p0 in range(0, self.n_paths, per_block):
                    block = self.snapshots[k, p0 : p0 + per_block]
                    heads = [p + tail for p in map(str, range(p0, p0 + len(block))) for tail in tails]
                    values = map(repr, block.ravel().tolist())
                    fh.write("\n".join(map(str.__add__, heads, values)) + "\n")

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


class _OpenBlasThreads:
    """The process-wide OpenBLAS thread count, pinned to 1 while any threaded block map runs.

    Worker threads each running a multi-threaded BLAS call oversubscribe the
    cores; one BLAS thread per worker does not.  Nested or concurrent pins
    share one saved count, restored when the last pin ends.
    """

    def __init__(self, get: Callable[[], int], set_: Callable[[int], None]) -> None:
        self.get, self.set = get, set_
        self._lock = threading.Lock()
        self._active = 0
        self._saved = 1

    @contextlib.contextmanager
    def pinned_to_one(self):
        with self._lock:
            if self._active == 0:
                self._saved = self.get()
                self.set(1)
            self._active += 1
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1
                if self._active == 0:
                    self.set(self._saved)


@functools.cache
def _openblas() -> Optional[_OpenBlasThreads]:
    """Thread-count hook of the OpenBLAS bundled with numpy, or None when there is none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return _OpenBlasThreads(get, set_)
    return None


def _blas_pinned(threaded: bool):
    """A context pinning BLAS to one thread when ``threaded``, else leaving it as it is."""
    blas = _openblas() if threaded else None
    return blas.pinned_to_one() if blas else contextlib.nullcontext()


def _map_blocks(fn: Callable, n_paths: int, worker_count: int) -> list:
    """fn(block) over fixed _BLOCK-path ranges, serially or on threads; results in block order.

    The threaded branch runs BLAS single-threaded and restores the previous
    thread count afterwards; the serial branch leaves BLAS its own threads.
    """
    blocks = [range(lo, min(lo + _BLOCK, n_paths)) for lo in range(0, n_paths, _BLOCK)]
    if worker_count == 1 or len(blocks) == 1:
        return [fn(blk) for blk in blocks]
    with _blas_pinned(True):
        with ThreadPoolExecutor(max_workers=worker_count) as pool:
            return list(pool.map(fn, blocks))


def _noise_chunks(master_seed: int, blk: range, steps: int, n: int, antithetic: bool):
    """Yield (first step, chunk): a block's standard normals, _NOISE_CHUNK steps at a time.

    Row k of each (B, m, n) chunk reads stream (master_seed, k); with
    ``antithetic`` the pair (2j, 2j+1) shares stream j and row 2j+1 holds the
    negation of row 2j.  Every chunk is a view of one reused buffer, so the
    noise held is B * _NOISE_CHUNK * n doubles whatever ``steps`` is, and the
    chunks continue the streams: any chunk length gives the same numbers.
    """
    stride = 2 if antithetic else 1
    gens = [_path_generator(master_seed, k // stride) for k in blk[::stride]]
    buf = np.empty((len(blk), min(_NOISE_CHUNK, steps), n))
    for lo in range(0, steps, buf.shape[1]):
        chunk = buf[:, : steps - lo]
        for j, gen in enumerate(gens):
            row = stride * j
            gen.standard_normal(out=chunk[row])
            if antithetic:
                np.negative(chunk[row], out=chunk[row + 1])
        yield lo, chunk


def _check_mc_inputs(
    params: ModelParams, disc: Discretization, op: DiscreteOperator, n_paths: int, worker_count: int
) -> None:
    """The input rules both Monte Carlo engines share."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")
    if disc.grid != op.grid:
        raise ValueError(f"disc.grid={disc.grid} is not the operator's grid {op.grid}")
    params.check_operator(op)
    if disc.dt * op.lambda1 > 10.0:
        raise ValueError(
            f"dt lambda1 = {disc.dt * op.lambda1:.3g} > 10; refine dt (default_dt suggests {default_dt(op):.3g})"
        )


def _run_block(
    params: ModelParams,
    disc: Discretization,
    factor_T: np.ndarray,
    path_indices: range,
    master_seed: int,
    out: np.ndarray,
    flagged: np.ndarray,
) -> None:
    n = disc.grid.n
    steps = disc.n_steps()
    B = len(path_indices)
    scale = math.sqrt(disc.dt * disc.grid.dx)
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
        for lo, chunk in _noise_chunks(master_seed, path_indices, steps, n, antithetic=False):
            chunk *= scale
            for s in range(lo, lo + chunk.shape[1]):
                forced = u + lam * sigma_eval(params.sigma, u) * chunk[:, s - lo, :] / disc.grid.dx
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
    _check_mc_inputs(params, disc, op, n_paths, worker_count)
    out = np.empty((len(disc.snapshot_times), n_paths, disc.grid.n))
    flagged = np.zeros(n_paths, dtype=bool)
    # a threaded BLAS call just before the workers start leaves OpenBLAS
    # threads spinning on their cores: about 40 ms per call at n=128
    with _blas_pinned(worker_count > 1):
        factor_T = implicit_factor(op, disc.dt).T
    _map_blocks(
        lambda blk: _run_block(params, disc, factor_T, blk, master_seed, out, flagged),
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
# The forms march in the eigenbasis of the operator.  M = V diag(r) V' with
# r = 1/(1 - dt w), so with S_x = V'A_x V one adjoint step A -> M'AM +
# c diag(diag(M'AM)), started from S_x = V'e_x e_x'V, reads
#
#     S <- S * (r r'),    d = diag(V S V'),    S <- S + c V' diag(d) V.
#
# Each S_x is symmetric, and is kept as its packed upper triangle a <= b.
# With W[i, (a, b)] = V_ia V_ib both halves of the diagonal bump are GEMMs
# over all marched rows at once: d = S @ W_d' (W_d weighs an off-diagonal
# pair twice) and S += (c d) @ W.  A step costs about n^4 flops for all x,
# against 4 n^4 for the n node-basis products M'A_x M, and allocates no
# (n, n, n) array.  Reflection: the operator of `assemble` commutes with the
# reversal J of the nodes (a uniform grid on a symmetric interval), so
# J M J = M and A_{n-1-x} = J A_x J.  Only rows x < ceil(n/2) march; the
# rest are mirrored once A = V S V' is back in node coordinates.
#
# So each A_x = V S_x V' is symmetric (up to rounding, ~1e-15 relative),
# and the pathwise difference of the two quadratic forms factors,
# u'A_x u - y'A_x y = (u-y)'A_x(u+y) (the cross terms u'A_x y and y'A_x u
# cancel).  For all x at once it is one GEMM of the flattened outer products
# (u-y)(u+y)' against A reshaped to (n, n^2).  The u, ell and q recursions
# share the propagator M, so they march as one stacked (3B, n) product per
# step.
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
    Raises OverflowError when the forms or their means leave the double range.
    """
    lam_sig = params.lam * params.sigma.L_sigma
    M = implicit_factor(op, dt)
    MT = M.T
    c = lam_sig**2 * dt / grid.dx
    g = apply_semigroup(op, dt * np.arange(cond_steps + 1), params.u0)

    # the adjoint march in the eigenbasis, rows x < half as packed upper triangles
    n = grid.n
    half = (n + 1) // 2
    march = n_steps - cond_steps
    V = np.ascontiguousarray(op.eigenvectors)
    r = 1.0 / (1.0 - dt * op.eigenvalues)
    ia, ib = np.triu_indices(n)
    W = np.ascontiguousarray((V.T[ia] * V.T[ib]).T)  # W[i, (a, b)] = V_ia V_ib
    W_dT = np.ascontiguousarray((np.where(ia == ib, 1.0, 2.0) * W).T)
    rr = r[ia] * r[ib]
    S = W[:half].copy()  # e_x e_x'
    D = np.empty((half, n))
    T = np.empty_like(S)
    overflow = f"conditional forms overflowed at lam={params.lam}, dt={dt} in adjoint step"
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(march):
            S *= rr
            np.matmul(S, W_dT, out=D)  # diag of the node-basis forms
            if not np.all(np.isfinite(D)):
                raise OverflowError(f"{overflow} {k + 1} of {march}; lower lam or t_end")
            D *= c
            np.matmul(D, W, out=T)
            S += T
    if not np.all(np.isfinite(S)):
        raise OverflowError(f"{overflow} {march} of {march}; lower lam or t_end")
    del W, W_dT, D, T
    A = _node_forms(S, V, ia, ib)

    Lam = np.zeros((n, n))
    Q = np.zeros((n, n))
    for k in range(cond_steps):
        Q = M @ (Q + c * np.diag(np.diag(Lam))) @ MT
        Lam = M @ (Lam + c * np.diag(g[k] ** 2)) @ MT
    gs = g[cond_steps]
    with np.errstate(over="ignore", invalid="ignore"):
        cv_mean = A.reshape(n, n * n) @ (np.outer(gs, gs) + Lam + Q).ravel()
    if not np.all(np.isfinite(cv_mean)):
        raise OverflowError(
            f"control-variate mean of the conditional forms overflowed at lam={params.lam}, "
            f"dt={dt} over {cond_steps} conditioning and {march} adjoint steps; lower lam or t_end"
        )
    return MT, g, A, cv_mean


def _node_forms(S, V, ia, ib):
    """(n, n, n) node-basis forms A_x = V S_x V' from the packed eigenbasis rows
    x < ceil(n/2); the other rows are their reflections A_{n-1-x} = J A_x J."""
    half, n = S.shape[0], V.shape[0]
    full = np.empty((half, n, n))
    full[:, ia, ib] = S
    full[:, ib, ia] = S
    left = V @ full
    del full
    A = np.empty((n, n, n))
    np.matmul(left, V.T, out=A[:half])
    del left
    A[half:] = A[n - 1 - half :: -1, ::-1, ::-1]
    return A


def _rb_branch(x, noise, lam, dx, MT, g):
    """March u, ell (first chaos), q (second chaos) in place through a noise chunk.

    The three ride in one (3, B, n) stack ``x``, each forced by lam * m * dW
    with multiplier m = u, g[s] and the previous step's ell respectively, so
    a step is one (3B, n) @ (n, n) product; g starts at the chunk's first step.
    """
    nb, steps, n = noise.shape
    mult = np.empty_like(x)
    forced = np.empty_like(x)
    for s in range(steps):
        dW = noise[:, s, :] / dx
        mult[0] = x[0]
        mult[1] = g[s]
        mult[2] = x[1]
        np.multiply(lam, mult, out=forced)
        forced *= dW
        forced += x
        np.matmul(forced.reshape(3 * nb, n), MT, out=x.reshape(3 * nb, n))


def _form_gaps(A, u, y):
    """gaps[p, x] = u_p' A_x u_p - y_p' A_x y_p for symmetric A_x.

    Evaluated as (u - y)_p' A_x (u + y)_p: the outer products of a chunk of
    paths, flattened to (chunk, n^2), times A flattened to (n, n^2): one
    GEMM per chunk, the chunk's outer products reusing one buffer of at most
    _CONTRACT_DOUBLES doubles.
    """
    n_paths, n = u.shape
    flat_T = A.reshape(n, n * n).T
    diff, total = u - y, u + y
    chunk = max(1, min(n_paths, _CONTRACT_DOUBLES // (n * n)))
    outer = np.empty((chunk, n, n))
    gaps = np.empty((n_paths, n))
    for lo in range(0, n_paths, chunk):
        m = min(chunk, n_paths - lo)
        np.multiply(diff[lo : lo + m, :, None], total[lo : lo + m, None, :], out=outer[:m])
        np.matmul(outer[:m].reshape(m, n * n), flat_T, out=gaps[lo : lo + m])
    return gaps


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
    _check_mc_inputs(params, disc, op, n_paths, worker_count)
    if n_paths % 2 != 0:
        raise ValueError(f"antithetic pairing needs an even n_paths >= 2, got {n_paths}")
    grid = disc.grid
    steps = disc.n_steps()
    cond = max(1, steps // 8)
    dts = (disc.dt, 0.5 * disc.dt)
    forms = (
        _conditional_forms(params, op, grid, dts[0], steps, cond),
        _conditional_forms(params, op, grid, dts[1], 2 * steps, 2 * cond),
    )
    scale = math.sqrt(dts[1] * grid.dx)
    lam = params.lam * params.sigma.L_sigma

    def run_blk(blk):
        # coarse and fine (u, ell, q) stacks, marched together chunk by chunk
        x = np.zeros((2, 3, len(blk), grid.n))
        x[:, 0] = params.u0
        for lo, z in _noise_chunks(master_seed, blk, 2 * cond, grid.n, antithetic=True):
            coarse = (z[:, 0::2, :] + z[:, 1::2, :]) * scale
            z *= scale
            for xs, w, s0, (MT, g, _A, _cv) in zip(x, (coarse, z), (lo // 2, lo), forms):
                _rb_branch(xs, w, lam, grid.dx, MT, g[s0:])
        sums = []
        for (u, ell, q), (_MT, g, A, _cv) in zip(x, forms):
            alive = np.all(np.isfinite(u), axis=1)
            vals = _form_gaps(A, u, g[-1] + ell + q)[alive]
            sums.append((vals.sum(axis=0), (vals**2).sum(axis=0), int(alive.sum())))
        return sums

    partial = _map_blocks(run_blk, n_paths, worker_count)
    out = []
    for which, (dt, (_MT, _g, _A, cv)) in enumerate(zip(dts, forms)):
        acc = sum(p[which][0] for p in partial)
        acc2 = sum(p[which][1] for p in partial)
        total = sum(p[which][2] for p in partial)
        if not np.all(np.isfinite(acc2)):
            raise OverflowError(
                f"squared form gaps of the estimator overflowed at lam={params.lam}, dt={dt}; "
                "lower lam or t_end"
            )
        mean = acc / total
        var = np.maximum(acc2 / total - mean**2, 0.0)
        out.append(
            SecondMomentEstimate(
                t=disc.t_end,
                dt=dt,
                values=mean + cv,
                stderr=np.sqrt(var / total),
                n_paths=n_paths,
                flagged_count=n_paths - total,
                conditioning_time=cond * disc.dt,
            )
        )
    return out[0], out[1]
