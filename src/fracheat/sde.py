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
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

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
# bytes of noise a block draws at once (2 MiB), whatever n, the horizon or
# the worker count; `_map_blocks` holds one such buffer per worker
_NOISE_BYTES = 1 << 21
# the pair estimator simulates paths to t_end / _CONDITION_AT and closes the
# rest by propagation; of 16, 32 and 64, 64 kept check 4's halving ratio
# furthest inside its window over 42 master seeds, at the lowest stderr
_CONDITION_AT = 64
# ensemble CSV rows formatted per write: their strings are all the memory the
# writer holds, so it stays flat in the number of paths
_CSV_BLOCK_ROWS = 1024


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
        if not (2.0 <= self.p < math.inf):
            raise ValueError(f"moment order p must be finite and >= 2, got {self.p}")

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
    """Time grid: step, horizon, and one or more snapshot times snapped to step multiples."""

    grid: Grid
    dt: float
    t_end: float
    snapshot_times: tuple

    def __post_init__(self) -> None:
        for name in ("dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.dt > 0.0 and self.t_end > 0.0 and self.dt <= self.t_end):
            raise ValueError(f"need 0 < dt <= t_end, got dt={self.dt}, t_end={self.t_end}")
        snaps = tuple(float(t) for t in self.snapshot_times)
        if not snaps:
            raise ValueError("snapshot_times must hold at least one time")
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

    def check_operator(self, op: DiscreteOperator) -> None:
        """The grid must be the operator's, and dt fine enough for its first
        eigenvalue: dt lambda1 <= 10."""
        if self.grid != op.grid:
            raise ValueError(f"disc.grid={self.grid} is not the operator's grid {op.grid}")
        if self.dt * op.lambda1 > 10.0:
            raise ValueError(
                f"dt lambda1 = {self.dt * op.lambda1:.3g} > 10; refine dt (default_dt suggests {default_dt(op):.3g})"
            )


def default_dt(op: DiscreteOperator) -> float:
    """Accuracy-motivated default 0.1/lambda1 (the implicit step is stable for any dt)."""
    return 0.1 / op.lambda1


@dataclass(frozen=True)
class PathEnsemble:
    """Snapshot store: shape (n_snapshots, n_paths, n) plus per-path blow-up flags.

    The arrays fix the path count and ``disc`` the snapshot times.  The
    constructor refuses snapshots of any other shape and a non-finite row on
    an unflagged path; the one scan that checks this keeps each snapshot's
    finite rows for `finite_paths`.
    """

    master_seed: int
    snapshots: np.ndarray
    flagged: np.ndarray
    params: ModelParams
    disc: Discretization

    def __post_init__(self) -> None:
        shape = (len(self.snapshot_times), self.n_paths, self.grid.n)
        if self.snapshots.shape != shape:
            raise ValueError(
                f"snapshots have shape {self.snapshots.shape}; (snapshot times, paths, nodes) is {shape}"
            )
        finite = np.stack([np.all(np.isfinite(u), axis=1) for u in self.snapshots])
        bad = np.argwhere(~finite & ~self.flagged)
        if bad.size:
            k, path = bad[0]
            raise ValueError(
                f"path {path} is not flagged but is non-finite at t={self.snapshot_times[k]!r}"
            )
        object.__setattr__(self, "_finite", finite)

    @property
    def n_paths(self) -> int:
        return len(self.flagged)

    @property
    def snapshot_times(self) -> tuple:
        return self.disc.snapshot_times

    @property
    def grid(self) -> Grid:
        return self.disc.grid

    @property
    def flagged_count(self) -> int:
        return int(np.count_nonzero(self.flagged))

    def _index(self, t: float) -> int:
        for k, s in enumerate(self.snapshot_times):
            if abs(s - t) <= 1e-9 * max(1.0, abs(t)):
                return k
        raise ValueError(f"t={t} is not a snapshot time; have {self.snapshot_times}")

    def snapshot(self, t: float) -> np.ndarray:
        return self.snapshots[self._index(t)]

    def finite_paths(self, t: float) -> np.ndarray:
        """Boolean mask of the paths whose snapshot at time t is finite."""
        return self._finite[self._index(t)]

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

    def metadata(self) -> dict:
        """The ensemble's size, seed, snapshot times and flag count, with the
        model and discretization it was run with: ``metadata.json``."""
        return {
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


def _map_threads(fn: Callable, items: list, worker_count: int) -> Iterator:
    """fn over items, serially or on up to worker_count threads; results lazily
    in item order, so a caller that folds them as they come holds only the
    results of the items still running ahead of it.

    The threaded branch runs BLAS single-threaded and restores the previous
    thread count afterwards; the serial branch leaves BLAS its own threads.
    """
    if worker_count == 1 or len(items) == 1:
        yield from map(fn, items)
        return
    with _blas_pinned(True):
        with ThreadPoolExecutor(max_workers=worker_count) as pool:
            yield from pool.map(fn, items)


def _map_blocks(fn: Callable, n_paths: int, worker_count: int, work_doubles: Callable[[int], int]) -> Iterator:
    """fn(block, work) over fixed _BLOCK-path ranges, as `_map_threads`; results lazily in block order.

    ``work`` is a flat float64 array of at least ``work_doubles(len(block))``
    doubles, which the block may overwrite.  The call allocates one per
    concurrent block, min(worker_count, blocks) in all, in the calling
    thread, and they go when the caller drops the exhausted map: a buffer
    freed by a worker thread stays resident in that thread's malloc arena,
    one freed in the calling thread goes back to the OS.
    """
    blocks = [range(lo, min(lo + _BLOCK, n_paths)) for lo in range(0, n_paths, _BLOCK)]
    size = max(work_doubles(len(blocks[0])), work_doubles(len(blocks[-1])))
    # at most min(worker_count, blocks) blocks run at once, so the list is
    # never empty at a pop; list.pop and list.append are atomic
    free = [np.empty(size) for _ in range(min(worker_count, len(blocks)))]

    def run(blk: range):
        work = free.pop()
        try:
            return fn(blk, work)
        finally:
            free.append(work)

    return _map_threads(run, blocks, worker_count)


def _chunk_steps(paths: int, steps: int, n: int) -> int:
    """Steps per noise chunk of a ``paths``-path block: `_NOISE_BYTES` // (8 B n),
    rounded down to an even count and at least 2, and at most ``steps``."""
    return min(steps, max(2, _NOISE_BYTES // (16 * paths * n) * 2))


def _noise_doubles(paths: int, steps: int, n: int) -> int:
    """Doubles of one noise chunk of a ``paths``-path block: what `_noise_chunks` needs."""
    return paths * _chunk_steps(paths, steps, n) * n


def _noise_chunks(master_seed: int, blk: range, steps: int, n: int, antithetic: bool, work: np.ndarray):
    """Yield (first step, chunk): a block's standard normals, `_NOISE_BYTES` at a time.

    Row k of each (B, m, n) chunk reads stream (master_seed, k); with
    ``antithetic`` the pair (2j, 2j+1) shares stream j and row 2j+1 holds the
    negation of row 2j.  Every chunk is a view of the first
    `_noise_doubles` doubles of ``work``, m = `_chunk_steps` steps: even, so
    a coarse increment of the pair estimator (two consecutive fine ones)
    never straddles two chunks.  The chunks continue the streams: any chunk
    length gives the same numbers.
    """
    stride = 2 if antithetic else 1
    gens = [_path_generator(master_seed, k // stride) for k in blk[::stride]]
    m = _chunk_steps(len(blk), steps, n)
    buf = work[: len(blk) * m * n].reshape(len(blk), m, n)
    for lo in range(0, steps, m):
        chunk = buf[:, : steps - lo]
        for j, gen in enumerate(gens):
            row = stride * j
            gen.standard_normal(out=chunk[row])
            if antithetic:
                np.negative(chunk[row], out=chunk[row + 1])
        yield lo, chunk


def _check_mc_inputs(
    params: ModelParams,
    disc: Discretization,
    op: DiscreteOperator,
    n_paths: int,
    master_seed: int,
    worker_count: int,
) -> None:
    """The input rules both Monte Carlo engines share."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
        raise ValueError(f"master_seed must be a nonnegative integer, got {master_seed!r}")
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")
    disc.check_operator(op)
    params.check_operator(op)


def _run_block(
    params: ModelParams,
    disc: Discretization,
    factor_T: np.ndarray,
    path_indices: range,
    master_seed: int,
    out: np.ndarray,
    flagged: np.ndarray,
    work: np.ndarray,
) -> None:
    n = disc.grid.n
    steps = disc.n_steps()
    B = len(path_indices)
    scale = math.sqrt(disc.dt * disc.grid.dx)
    snap_steps = disc.snapshot_steps()
    snap_lookup = {s: i for i, s in enumerate(snap_steps)}
    u = np.tile(params.u0, (B, 1))
    forced = np.empty_like(u)
    alive = np.ones(B, dtype=bool)
    lam, dx = params.lam, disc.grid.dx

    def record(step_index: int) -> None:
        # a non-finite row stays non-finite, and a GEMM row reads only its own
        # input row, so checking here alone flags the same paths as every step
        bad = alive & ~np.all(np.isfinite(u), axis=1)
        if np.any(bad):
            alive[bad] = False
            u[bad] = 0.0  # quarantine so later matmuls stay finite; snapshots show NaN
        j = snap_lookup.get(step_index)
        if j is not None:
            snap = u.copy()
            snap[~alive] = np.nan
            out[j, path_indices.start : path_indices.stop] = snap

    record(0)
    # overflow here is an expected outcome (the path gets flagged), not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, chunk in _noise_chunks(master_seed, path_indices, steps, n, False, work):
            chunk *= scale
            for s in range(lo, lo + chunk.shape[1]):
                # u + lam sigma(u) dW / dx, in that operation order, in place
                if params.sigma.kind == "linear":
                    np.multiply(u, params.sigma.L_sigma, out=forced)
                else:
                    forced[...] = sigma_eval(params.sigma, u)
                forced *= lam
                forced *= chunk[:, s - lo, :]
                forced /= dx
                forced += u
                np.matmul(forced, factor_T, out=u)
                if s + 1 in snap_lookup or s + 1 == steps:
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
    _check_mc_inputs(params, disc, op, n_paths, master_seed, worker_count)
    out = np.empty((len(disc.snapshot_times), n_paths, disc.grid.n))
    flagged = np.zeros(n_paths, dtype=bool)
    # a threaded BLAS call just before the workers start leaves OpenBLAS
    # threads spinning on their cores: about 40 ms per call at n=128
    with _blas_pinned(worker_count > 1):
        factor_T = implicit_factor(op, disc.dt).T
    steps, n = disc.n_steps(), disc.grid.n
    for _ in _map_blocks(
        lambda blk, work: _run_block(params, disc, factor_T, blk, master_seed, out, flagged, work),
        n_paths, worker_count, lambda paths: _noise_doubles(paths, steps, n),
    ):
        pass
    return PathEnsemble(master_seed=master_seed, snapshots=out, flagged=flagged, params=params, disc=disc)


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
#     sigma the scheme's second moment P = E uu' obeys, step by step,
#
#         P <- M (P + c diag(diag P)) M',    c = (lam L_sigma)^2 dt / dx,
#
#     so the conditional second moment at t given the state v at t* is
#     diag(Prop(vv')), Prop that map over the remaining steps.
#   * antithetic pairing of the driving sheets.
#   * a control variate: the same conditional moment of the second-order
#     noise expansion y = g + ell + q (deterministic flow, first and second
#     Wiener-chaos terms) is subtracted pathwise and its exact mean, that of
#     C = E[yy'] = g*g*' + E[ll'] + E[qq'], is added back.
#
# Prop is linear, so the path mean of the conditional moments is one
# propagation of the mean matrix: the estimate is diag(Prop(mean_p
# (u_p - y_p)(u_p + y_p)' + C)).  Prop commutes with transposition, so the
# diagonal sees only the symmetric part, u u' - y y', while the factored form
# keeps the small difference u - y out of a cancellation.  The map runs in
# the eigenbasis of the operator: M = V diag(r) V' with r = 1/(1 - dt w), so
# with Phat = V'PV a step reads
#
#     d = diag(V Phat V'),    Phat <- (r r') * (Phat + c V' diag(d) V).
#
# Several matrices march as one (K, n, n) stack, each product of a step one
# batched GEMM.  The standard error needs independent samples, so the antithetic
# pair means are split into _BATCHES batches by pair index and each batch's
# mean matrix is propagated beside the estimate.
#
# Prop depends on dt exactly as the simulation does, so the estimator retains
# the scheme's full time-discretization bias; only sampling noise is
# suppressed.

# batches of the pair estimator's standard error: pair j, paths 2j and 2j+1,
# falls in batch j % _BATCHES.  Each batch adds one n x n matrix to the
# stack each resolution propagates; 8 leave the stderr 7 degrees of freedom,
# and a step of the 9-matrix stack costs about 0.23 ms at n 64
_BATCHES = 8
# largest second moment the pair estimator propagates (about 3.4e153): its
# stderr squares the difference of two such values, at most 2^1022
_MOMENT_MAX = 2.0**510


@dataclass(frozen=True)
class SecondMomentEstimate:
    """Per-node estimate of E|u(t,x)|^2 with sampling standard errors, at the
    time t = disc.n_steps() * disc.dt the scheme reached (t_end rounded to a
    whole number of steps)."""

    t: float
    dt: float
    values: np.ndarray
    stderr: np.ndarray
    n_paths: int
    flagged_count: int
    conditioning_time: float


def _control_moment(params, op, dt, cond_steps):
    """(M^T, g, C): the implicit factor's transpose, the deterministic flow at
    the conditioning steps, and C = E[yy'] of the control variate at t*.

    E[ll'] (Lam) and E[qq'] (Q) follow the second-moment map split by chaos
    order: Lam is forced by g, Q by the diagonal of Lam."""
    M = implicit_factor(op, dt)
    MT = M.T
    c = (params.lam * params.sigma.L_sigma) ** 2 * dt / op.grid.dx
    g = apply_semigroup(op, dt * np.arange(cond_steps + 1), params.u0)
    n = op.grid.n
    Lam = np.zeros((n, n))
    Q = np.zeros((n, n))
    for k in range(cond_steps):
        Q = M @ (Q + c * np.diag(np.diag(Lam))) @ MT
        Lam = M @ (Lam + c * np.diag(g[k] ** 2)) @ MT
    gs = g[cond_steps]
    return MT, g, np.outer(gs, gs) + Lam + Q


def _propagate_diag(op, dt, c, X, steps, overflow):
    """diag(Prop(X_k)) for a (K, n, n) stack X of node-basis matrices: the map
    P <- M (P + c diag(diag P)) M' applied ``steps`` times, in the eigenbasis.

    Returns a (K, n) array.  Raises OverflowError, ``overflow`` followed by
    the step, at the first step with a diagonal that is not finite or whose
    magnitude passes `_MOMENT_MAX`.
    """
    V, w = op.eigenvectors, op.eigenvalues
    VT = np.ascontiguousarray(V.T)
    r = 1.0 / (1.0 - dt * w)
    RR = np.multiply.outer(r, r)
    P = VT @ X @ V  # Phat_k = V'X_kV
    T = np.empty_like(P)
    U = np.empty_like(P)
    d = np.empty(X.shape[:2])

    def diagonals(step):
        np.matmul(V, P, out=T)
        np.einsum("kib,ib->ki", T, V, out=d)  # d_k = diag(V Phat_k V')
        if not np.all(np.abs(d) <= _MOMENT_MAX):
            raise OverflowError(f"{overflow} {step} of {steps}; lower lam or t_end")

    with np.errstate(over="ignore", invalid="ignore"):  # refused by `diagonals`
        for s in range(steps):
            diagonals(s + 1)
            d *= c
            np.multiply(VT, d[:, None, :], out=T)  # V' diag(c d_k)
            np.matmul(T, V, out=U)
            P += U
            P *= RR
        diagonals(steps)
    return d.copy()


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


def _block_sums(u, y, first_path):
    """A block's sums of (u_p - y_p)(u_p + y_p)' for paths first_path + p:
    over its finite paths, then per batch over the antithetic pair means
    ((.)_2j + (.)_2j+1) / 2 of the pairs whose two paths are finite, pair j
    in batch j % _BATCHES.  Returns (path sum (n, n), finite paths, batch
    sums (_BATCHES, n, n), pairs per batch).  Paths 2j and 2j+1 share one
    noise stream, so the pairs, not the paths, are independent."""
    alive = np.all(np.isfinite(u), axis=1)
    both = np.repeat(alive[0::2] & alive[1::2], 2)
    batch = ((first_path + np.arange(len(u))) // 2) % _BATCHES
    # an overflow shows as inf or nan, which the propagation refuses
    with np.errstate(over="ignore", invalid="ignore"):
        e, f = u - y, u + y
        path_sum = e[alive].T @ f[alive]
        batch_sums = np.stack([0.5 * (e[m].T @ f[m]) for m in (both & (batch == b) for b in range(_BATCHES))])
    pairs = np.bincount(batch[both], minlength=_BATCHES) // 2
    return path_sum, int(alive.sum()), batch_sums, pairs


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
    t_end/64 (at least one coarse step), and the remaining steps are closed
    exactly by propagating the mean of (u - y)(u + y)' plus E[yy'] through
    the scheme's second-moment map; see the module comment above.  The
    coarse increments are sums of consecutive fine ones, so the sampling
    error is nearly common to both resolutions and the pair of discrepancies
    against a deterministic reference isolates the time-discretization bias.
    Linear sigma and an even n_paths only.

    The standard errors are batch-means ones.  Pair j falls in batch
    j % 8, and with n_b pairs whose two paths are finite in batch b, means
    m_b over those pairs and N = sum n_b, the stderr is
    sqrt(sum_b n_b (m_b - mbar)^2 / ((B - 1) N)), mbar = sum_b n_b m_b / N,
    over the B non-empty batches.  With fewer than 8 pairs each pair is its
    own batch, the per-pair stderr; a single pair has no spread to measure,
    so its stderr is NaN.  Returns (coarse, fine).
    """
    if params.sigma.kind != "linear":
        raise ValueError(
            "conditional second-moment estimation requires linear sigma; "
            f"got kind={params.sigma.kind!r}"
        )
    _check_mc_inputs(params, disc, op, n_paths, master_seed, worker_count)
    if n_paths % 2 != 0:
        raise ValueError(f"antithetic pairing needs an even n_paths >= 2, got {n_paths}")
    grid = disc.grid
    steps = disc.n_steps()
    cond = max(1, steps // _CONDITION_AT)
    dts = (disc.dt, 0.5 * disc.dt)
    spans = ((steps, cond), (2 * steps, 2 * cond))
    controls = [_control_moment(params, op, dt, c_steps) for dt, (_n, c_steps) in zip(dts, spans)]
    scale = math.sqrt(dts[1] * grid.dx)
    lam = params.lam * params.sigma.L_sigma

    def run_blk(blk, work):
        # coarse and fine (u, ell, q) stacks, marched together chunk by chunk;
        # the coarse increments fill a half-chunk slot after the noise chunk
        x = np.zeros((2, 3, len(blk), grid.n))
        x[:, 0] = params.u0
        used = _noise_doubles(len(blk), 2 * cond, grid.n)
        half = work[used : used + used // 2].reshape(len(blk), -1, grid.n)
        for lo, z in _noise_chunks(master_seed, blk, 2 * cond, grid.n, True, work):
            coarse = half[:, : z.shape[1] // 2]
            np.add(z[:, 0::2], z[:, 1::2], out=coarse)
            coarse *= scale
            z *= scale
            for xs, w, s0, (MT, g, _C) in zip(x, (coarse, z), (lo // 2, lo), controls):
                _rb_branch(xs, w, lam, grid.dx, MT, g[s0:])
        return [_block_sums(u, g[-1] + ell + q, blk.start) for (u, ell, q), (_MT, g, _C) in zip(x, controls)]

    # the blocks' sums, added in block order as the blocks finish, so no
    # worker count changes a bit and no more than the running blocks' are held
    sums = None
    for part in _map_blocks(
        run_blk, n_paths, worker_count, lambda paths: 3 * _noise_doubles(paths, 2 * cond, grid.n) // 2
    ):
        sums = part if sums is None else [[a + b for a, b in zip(acc, p)] for acc, p in zip(sums, part)]

    def close(which):
        dt, (n_steps, c_steps) = dts[which], spans[which]
        path_sum, alive, batch_sums, pairs = sums[which]
        full = pairs > 0
        with np.errstate(invalid="ignore"):  # no finite path: NaN, which the propagation refuses
            stack = np.concatenate([[path_sum / alive + controls[which][2]], batch_sums[full] / pairs[full, None, None]])
        diag = _propagate_diag(
            op, dt, lam**2 * dt / grid.dx, stack, n_steps - c_steps,
            f"second moments of the estimator overflowed (above 2^510) at lam={params.lam}, dt={dt} in propagation step",
        )
        values, means, n_b = diag[0], diag[1:], pairs[full]
        stderr = np.full(grid.n, np.nan)
        if len(n_b) > 1:
            mbar = n_b @ means / n_b.sum()
            stderr = np.sqrt(n_b / ((len(n_b) - 1) * n_b.sum()) @ (means - mbar) ** 2)
        return SecondMomentEstimate(
            t=steps * disc.dt,
            dt=dt,
            values=values,
            stderr=stderr,
            n_paths=n_paths,
            flagged_count=n_paths - alive,
            conditioning_time=cond * disc.dt,
        )

    # the two resolutions propagate side by side when there are workers
    coarse, fine = _map_threads(close, [0, 1], worker_count)
    return coarse, fine
