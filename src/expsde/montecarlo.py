"""Ensemble simulation: weak-error estimation, divergence accounting, and
empirical moment checks, deterministically parallel.

Trajectories are processed in fixed chunks of CHUNK_TRAJECTORIES.  Each
trajectory draws its normals from its own keyed stream, a row of the one
stream a chunk draws through (paths.make_stream), stepping is vectorized
across the chunk, and chunk results are reduced in chunk-index order
through a pairwise tree with compensated addition.  Neither the
worker count nor the scheduling order can change any output bit (workers
only compute whole chunks, which are pure functions of the chunk index).

Workers are spawned processes from one pool per worker_pool entry: a
command opens it once around all of its ensembles, and the pool is only
started at the first ensemble with more than one chunk, so a command that
never needs it spawns nothing.

Diverged trajectories (non-finite state, |state| above the cap, or a
non-finite test-function value at the terminal, for example 1/x at an
exact zero) are excluded from means and counted in n_diverged.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import check_hypotheses, exp_moment_bound
from .paths import make_stream
from .schemes import alive, step_values

__all__ = [
    "Estimate",
    "WeakErrorRow",
    "WeakErrorTable",
    "AllDivergedError",
    "TEST_FUNCTIONS",
    "resolve_test_function",
    "estimate_expectation",
    "estimate_many",
    "weak_error_sweep",
    "moment_sweep",
    "exp_moment_estimate",
    "simulate_paths",
    "worker_pool",
]

CHUNK_TRAJECTORIES = 4096
SEGMENT_STEPS = 1024
TILE_STEPS = 32  # steps per step-major draw tile (see simulate_paths)
TILE_ROWS = 256  # rows per sub-block of the copy into a tile
MARKER_FRACTION = 0.01  # a table row renders "-" above this diverged share


class AllDivergedError(RuntimeError):
    """Every trajectory of an ensemble diverged; no mean is available."""


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n_effective: int
    n_diverged: int

    @property
    def n_requested(self) -> int:
        return self.n_effective + self.n_diverged


@dataclass(frozen=True)
class WeakErrorRow:
    p: int
    dt: float
    estimate: Estimate
    reference: object
    abs_error: Optional[float]
    diverged: bool


@dataclass(frozen=True)
class WeakErrorTable:
    rows: tuple

    def row(self, p: int) -> WeakErrorRow:
        for r in self.rows:
            if r.p == p:
                return r
        raise KeyError(f"no row at refinement level {p}")


def _f_x(x):
    return x


def _f_x2(x):
    return x * x


def _f_inv_x(x):
    with np.errstate(divide="ignore"):
        return 1.0 / x


def _f_exp_neg_x2(x):
    return np.exp(-(x * x))


TEST_FUNCTIONS = {
    "x": _f_x,
    "x2": _f_x2,
    "inv_x": _f_inv_x,
    "exp_neg_x2": _f_exp_neg_x2,
}


def resolve_test_function(f):
    if callable(f):
        return f
    try:
        return TEST_FUNCTIONS[f]
    except KeyError:
        raise ValueError(
            f"unknown test function {f!r}; built-ins: {sorted(TEST_FUNCTIONS)}"
        ) from None


# ------------------------------------------------------------------ engine

def simulate_paths(model, kind, p, streams):
    """Step one path per row of streams over the uniform 2^p grid of the
    horizon.

    streams is one stream covering streams.count trajectories, such as
    make_stream(seed, start, p, count); each path draws from its own row.
    Yields (states, diverged) at every grid time, the start included: 2^p + 1
    pairs of arrays with one element per row.  Every yielded array is fresh
    and never written again.  A path that diverges keeps its last good state
    and is flagged from then on.  Draws 2^p standard normals per row in
    segments of SEGMENT_STEPS, one standard_normals call per segment, and
    stops early (without drawing the rest) once every path has diverged.

    A segment's (count, steps) block is row-major, so one step's draws lie
    a whole row apart.  The engine therefore copies TILE_STEPS steps at a
    time into one reused step-major (TILE_STEPS, count) tile, already
    multiplied by sqrt(dt), in sub-blocks of TILE_ROWS rows that stay in
    cache; each step's increments are then one contiguous tile row.
    """
    if p < 0:
        raise ValueError(f"refinement level must be nonnegative, got {p}")
    n_steps = 1 << p
    dt = model.horizon / n_steps
    sqdt = math.sqrt(dt)
    count = streams.count
    x = np.full(count, model.x0, dtype=np.float64)
    div = np.zeros(count, dtype=bool)
    yield x, div
    tile = np.empty((min(TILE_STEPS, n_steps), count), dtype=np.float64)
    for k0 in range(0, n_steps, SEGMENT_STEPS):
        block = streams.standard_normals(min(SEGMENT_STEPS, n_steps - k0))
        for j0 in range(0, block.shape[1], TILE_STEPS):
            steps = tile[:min(TILE_STEPS, block.shape[1] - j0)]
            for r0 in range(0, count, TILE_ROWS):
                rows = slice(r0, r0 + TILE_ROWS)
                np.multiply(block[rows, j0:j0 + len(steps)].T, sqdt,
                            out=steps[:, rows])
            for dw in steps:
                if div.all():
                    return
                cand = step_values(kind, model, x, dt, dw)
                div = div | ~alive(cand)
                # freeze in the fresh kernel output, never in a yielded x
                np.copyto(cand, x, where=div)
                x = cand
                yield x, div
        # free this segment's draws before the next segment's are made
        del block


def _chunk_payload(model, kind, p, seed, start, count, observe):
    """Simulate trajectories [start, start+count) at level p and return
    observe(model, p, paths), a path observable: a module-level function,
    so that a worker can receive it, reducing the (states, diverged) pairs
    of simulate_paths to (one value per path, final diverged mask).  Pure
    function of its arguments."""
    paths = simulate_paths(model, kind, p, make_stream(seed, start, p, count))
    return observe(model, p, paths)


def _terminal(model, p, paths):
    """The last state of each path."""
    for x, div in paths:
        pass
    return x, div


def _riemann_integral(model, p, paths):
    """The left-endpoint Riemann sum of X^(2 alpha - 2) along each path; a
    frozen path adds nothing more."""
    dt = model.horizon / (1 << p)
    power = 2.0 * model.alpha - 2.0
    px, pdiv = next(paths)
    integral = np.zeros(len(px), dtype=np.float64)
    for x, div in paths:
        with np.errstate(over="ignore", invalid="ignore"):
            contrib = np.power(px, power) * dt
        integral = np.where(pdiv, integral, integral + contrib)
        px, pdiv = x, div
    return integral, pdiv


def _worker(args):
    return _chunk_payload(*args)


class _LazyPool:
    """A spawn pool of `workers` processes, at most one per CPU, started at
    the first map with more than one worker and more than one task."""

    def __init__(self, workers):
        self.workers = min(workers, os.cpu_count() or 1)
        self._pool = None

    def imap(self, func, arglist):
        if self.workers <= 1 or len(arglist) <= 1:
            return map(func, arglist)
        if self._pool is None:
            ctx = multiprocessing.get_context("spawn")
            self._pool = ctx.Pool(processes=self.workers)
        return self._pool.imap(func, arglist, chunksize=1)

    def close(self):
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


_open_pool = None


@contextlib.contextmanager
def worker_pool(workers):
    """Share one worker pool among every ensemble run inside the block.

    Reentrant: the outermost entry sets the worker count and nested entries
    reuse its pool, whatever count they name.  Nothing is spawned until an
    ensemble with more than one chunk runs with more than one worker.  When
    the outermost entry exits, also by an exception, its pool is terminated
    and its processes joined.
    """
    global _open_pool
    if _open_pool is not None:
        yield _open_pool
        return
    _open_pool = pool = _LazyPool(workers)
    try:
        yield pool
    finally:
        _open_pool = None
        pool.close()


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _tree_sum(leaves):
    """Pairwise compensated reduction in fixed leaf order."""
    if not leaves:
        return 0.0
    nodes = [(v, 0.0) for v in leaves]
    while len(nodes) > 1:
        merged = []
        for i in range(0, len(nodes) - 1, 2):
            s1, c1 = nodes[i]
            s2, c2 = nodes[i + 1]
            s, e = _two_sum(s1, s2)
            merged.append((s, c1 + c2 + e))
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    s, c = nodes[0]
    return s + c


def _assemble(sums, sumsqs, n_eff, n_div):
    total = _tree_sum(sums)
    total_sq = _tree_sum(sumsqs)
    if n_eff == 0:
        return Estimate(mean=math.nan, stderr=math.inf,
                        n_effective=0, n_diverged=n_div)
    mean = total / n_eff
    if n_eff == 1:
        stderr = math.inf
    else:
        var = (total_sq - n_eff * mean * mean) / (n_eff - 1)
        # an overflowed sum of squares gives inf or nan: no finite stderr
        stderr = (math.sqrt(max(0.0, var) / n_eff) if math.isfinite(var)
                  else math.inf)
    return Estimate(mean=mean, stderr=stderr, n_effective=n_eff, n_diverged=n_div)


def _estimate(model, kind, fs, p, n, seed, workers, observe):
    """One Estimate per test function in fs, each applied in this process
    to observe's per-path values of one shared n-path ensemble.  A path
    counts as diverged for f when it diverged or f of its value is not
    finite.

    Chunks run on the enclosing worker_pool's pool, or on one opened for
    this ensemble alone, and in this process when that pool has one worker
    or there is one chunk; they are reduced in chunk-index order.
    """
    if n < 1:
        raise ValueError(f"need at least one trajectory, got n={n}")
    funcs = [resolve_test_function(f) for f in fs]
    per_f = [([], [], 0, 0) for _ in funcs]  # sums, sumsqs, n_eff, n_div
    arglist = [(model, kind, p, seed, s, min(CHUNK_TRAJECTORIES, n - s), observe)
               for s in range(0, n, CHUNK_TRAJECTORIES)]
    with worker_pool(workers) as pool:
        for values, div in pool.imap(_worker, arglist):
            for idx, func in enumerate(funcs):
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    vals = np.asarray(func(values), dtype=np.float64)
                good = ~div & np.isfinite(vals)
                sums, sumsqs, n_eff, n_div = per_f[idx]
                safe = np.where(good, vals, 0.0)
                with np.errstate(over="ignore"):
                    sums.append(float(np.sum(safe)))
                    sumsqs.append(float(np.sum(safe * safe)))
                per_f[idx] = (sums, sumsqs,
                              n_eff + int(good.sum()),
                              n_div + int((~good).sum()))
    return [_assemble(*acc) for acc in per_f]


def estimate_many(model, kind, fs, p, n, seed, workers: int = 1):
    """Estimate E[f(X_T)] for several test functions on one shared ensemble.

    Returns one Estimate per entry of fs.  Divergence is assessed per test
    function (a terminal that is fine for f(x)=x may still produce a
    non-finite 1/x).
    """
    return _estimate(model, kind, fs, p, n, seed, workers, _terminal)


def estimate_expectation(model, kind, f, p, n, seed, workers: int = 1) -> Estimate:
    """Mean and stderr of f over the non-diverged terminals of an n-path
    ensemble at refinement level p.  Raises AllDivergedError if nothing
    survives."""
    if n < 2:
        raise ValueError(f"need n >= 2 for a standard error, got n={n}")
    est = estimate_many(model, kind, [f], p, n, seed, workers=workers)[0]
    if est.n_effective == 0:
        raise AllDivergedError(
            f"all {n} trajectories diverged (scheme {kind.value}, p={p})"
        )
    return est


def weak_error_sweep(model, kind, f, p_list, n, reference, seed,
                     workers: int = 1) -> WeakErrorTable:
    """One weak-error row per refinement level in p_list.

    Ensembles at different levels are independent (the level is part of the
    stream key).  A row is marked diverged when more than MARKER_FRACTION
    of its trajectories diverged or its mean is non-finite; the sweep never
    aborts on a bad row.
    """
    if not p_list:
        raise ValueError("p_list must be nonempty")
    rows = []
    for p in p_list:
        est = estimate_many(model, kind, [f], p, n, seed, workers=workers)[0]
        marked = (est.n_diverged > MARKER_FRACTION * est.n_requested
                  or not math.isfinite(est.mean))
        abs_error = None
        if not marked:
            abs_error = abs(est.mean - reference.value)
        rows.append(WeakErrorRow(
            p=p,
            dt=model.horizon / (1 << p),
            estimate=est,
            reference=reference,
            abs_error=abs_error,
            diverged=marked,
        ))
    return WeakErrorTable(rows=tuple(rows))


def moment_sweep(model, kind, orders, p, n, seed, workers: int = 1):
    """Empirical E[X_T^order] for each order, on one shared ensemble.

    Warns when an order exceeds the model's largest provably finite moment
    order (the estimate is still computed; blow-up across p is exactly what
    the caller may be probing)."""
    report = check_hypotheses(model)
    for order in orders:
        if order > report.max_moment_order:
            warnings.warn(
                f"moment order {order} exceeds the provable bound "
                f"{report.max_moment_order:.6g}; estimate may blow up",
                stacklevel=2,
            )
    funcs = [(lambda o: (lambda x: np.power(x, float(o))))(o) for o in orders]
    ests = estimate_many(model, kind, funcs, p, n, seed, workers=workers)
    return dict(zip(orders, ests))


def exp_moment_estimate(model, kind, mu, p, n, seed, workers: int = 1) -> Estimate:
    """Empirical E[exp(mu * I_T)] with I_T the left-endpoint Riemann sum of
    X^(2 alpha - 2) on the simulation grid.  Overflowing trajectories count
    as diverged.  A GeneralDriftModel needs its growth metadata (B2 sets the
    bound checked against mu); without it InsufficientMetadataError is
    raised."""
    bound = exp_moment_bound(model)
    if mu > bound:
        warnings.warn(
            f"mu={mu} exceeds the exponential-moment bound {bound:.6g} "
            "for this model; the estimate may be infinite in the limit",
            stacklevel=2,
        )
    if model.b_at_zero > 0.0 and model.alpha <= 1.5:
        warnings.warn(
            "exponential-moment bound is only established for alpha > 3/2 "
            "when b(0) > 0",
            stacklevel=2,
        )
    return _estimate(model, kind, [lambda integral: np.exp(mu * integral)],
                     p, n, seed, workers, _riemann_integral)[0]
