"""Ensemble simulation: weak-error estimation, divergence accounting, and
empirical moment checks, deterministically parallel.

Trajectories are processed in fixed chunks of CHUNK_TRAJECTORIES.  Each
trajectory draws its normals from its own keyed stream, a row of the one
stream a chunk draws through (paths.make_stream), stepping is vectorized
across the chunk, every scheme of an ensemble steps in lockstep on the
chunk's one pass of draws, and chunk results are reduced in chunk-index order
through a pairwise tree with compensated addition.  Neither the
worker count nor the scheduling order can change any output bit (workers
only compute whole chunks, which are pure functions of the chunk index).

Workers are processes of one pool per worker_pool entry: a command opens
it once around all of its ensembles, and the pool is only started at the
first ensemble with more than one chunk, so a command that never needs it
starts no process.  On Linux the workers are forked, so they start with
numpy and this package already imported; elsewhere they are spawned and
import them afresh.

Diverged trajectories (non-finite state, |state| above the cap, or a
non-finite test-function value at the terminal, for example 1/x at an
exact zero) are excluded from means and counted in n_diverged.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import check_hypotheses, exp_moment_bound
from .paths import make_stream
from .schemes import DIVERGENCE_CAP, SchemeKind, alive, step_values

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
    Until a first path diverges a step costs no divergence mask: a max and
    a min of the new states show that all are alive.

    This is the one-kind view of _lockstep_paths, which steps several
    schemes on the same draws.
    """
    for states in _lockstep_paths(model, (kind,), p, streams):
        yield states[0]


def _lockstep_paths(model, kinds, p, streams):
    """Step one path per row of streams under every scheme in kinds, all on
    the same increments, each scheme as simulate_paths steps it alone.

    Yields a tuple of (states, diverged) pairs, one per entry of kinds, at
    every grid time.  A scheme whose paths have all diverged is no longer
    stepped and keeps yielding its last pair; drawing stops once every
    scheme is done.  Each scheme thus sees exactly the increments, in the
    order, that it would see stepped alone.

    A segment's (count, steps) block is row-major, so one step's draws lie
    a whole row apart.  The engine therefore copies TILE_STEPS steps at a
    time into one reused step-major (TILE_STEPS, count) tile, already
    multiplied by sqrt(dt), in sub-blocks of TILE_ROWS rows that stay in
    cache; each step's increments are then one contiguous tile row, shared
    by every scheme.

    While none of a scheme's paths has diverged, one max and one min of the
    kernel output decide that every path is still alive (see alive); the
    step then takes the output as it is, with a fresh all-false mask, and
    needs no mask, freeze or all() test.  From the first step with a
    diverged path on, the scheme takes the mask path: it flags the paths
    that failed alive and freezes them at their last state.
    """
    if p < 0:
        raise ValueError(f"refinement level must be nonnegative, got {p}")
    n_steps = 1 << p
    dt = model.horizon / n_steps
    sqdt = math.sqrt(dt)
    count = streams.count
    xs = [np.full(count, model.x0, dtype=np.float64)] * len(kinds)
    divs = [np.zeros(count, dtype=bool)] * len(kinds)
    clean = [True] * len(kinds)  # no path of the scheme has diverged yet
    live = range(len(kinds))
    yield tuple(zip(xs, divs))
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
                live = [i for i in live if clean[i] or not divs[i].all()]
                if not live:
                    return
                for i in live:
                    cand = step_values(kinds[i], model, xs[i], dt, dw)
                    # max and min propagate NaN, which fails both tests
                    if (clean[i] and cand.max() <= DIVERGENCE_CAP
                            and cand.min() >= -DIVERGENCE_CAP):
                        xs[i], divs[i] = cand, np.zeros(count, dtype=bool)
                        continue
                    clean[i] = False
                    div = divs[i] | ~alive(cand)
                    # freeze in the fresh kernel output, never in a yielded x
                    np.copyto(cand, xs[i], where=div)
                    xs[i], divs[i] = cand, div
                yield tuple(zip(xs, divs))
        # free this segment's draws before the next segment's are made
        del block


def _chunk_payload(model, kinds, p, seed, start, count, observe):
    """Simulate trajectories [start, start+count) at level p under every
    scheme in kinds, from one stream, and return observe(model, p, paths).

    observe is a path observable: a module-level function, so that a worker
    can receive it, reducing the lockstep pairs of _lockstep_paths to one
    (one value per path, final diverged mask) pair per scheme.  Pure
    function of its arguments."""
    paths = _lockstep_paths(model, kinds, p, make_stream(seed, start, p, count))
    return observe(model, p, paths)


def _terminal(model, p, paths):
    """The last state of each path."""
    for states in paths:
        pass
    return states


def _riemann_integral(model, p, paths):
    """The left-endpoint Riemann sum of X^(2 alpha - 2) along each path; a
    frozen path adds nothing more."""
    dt = model.horizon / (1 << p)
    power = 2.0 * model.alpha - 2.0
    prev = next(paths)
    integrals = [np.zeros(len(px), dtype=np.float64) for px, _ in prev]
    for states in paths:
        for i, (px, pdiv) in enumerate(prev):
            with np.errstate(over="ignore", invalid="ignore"):
                contrib = np.power(px, power) * dt
            integrals[i] = np.where(pdiv, integrals[i], integrals[i] + contrib)
        prev = states
    return [(integral, pdiv) for integral, (_, pdiv) in zip(integrals, prev)]


def _worker(args):
    return _chunk_payload(*args)


class _LazyPool:
    """A pool of `workers` processes, at most one per CPU, started at the
    first map with more than one worker and more than one task.

    The workers are forked on Linux and spawned elsewhere: macOS's
    Accelerate-backed numpy is not fork-safe, and Windows cannot fork.  A
    forked worker needs no import and runs the same pure _chunk_payload as
    a spawned one, so the start method changes no output bit.  A spawned
    worker re-imports the calling script, which must therefore guard its
    entry code with `if __name__ == "__main__":`.
    """

    def __init__(self, workers):
        self.workers = min(workers, os.cpu_count() or 1)
        self._pool = None

    def imap(self, func, arglist):
        if self.workers <= 1 or len(arglist) <= 1:
            return map(func, arglist)
        if self._pool is None:
            ctx = multiprocessing.get_context("fork" if sys.platform == "linux" else "spawn")
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
    reuse its pool, whatever count they name.  No process is started until
    an ensemble with more than one chunk runs with more than one worker.  When
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


def _scheme_kinds(kind):
    """kind as a tuple of SchemeKinds: one kind, or a nonempty sequence."""
    kinds = (kind,) if isinstance(kind, SchemeKind) else tuple(kind)
    if not kinds:
        raise ValueError("need at least one scheme")
    return kinds


def _one_kind(kind):
    """Reject anything but one SchemeKind, for the APIs that return one
    result per test function or order."""
    if not isinstance(kind, SchemeKind):
        raise TypeError(f"expected one SchemeKind, got {kind!r}; "
                        "estimate_many takes a sequence of them")


def _estimate(model, kinds, fs, p, n, seed, workers, observe):
    """One Estimate per (scheme, test function), kind-major, each applied in
    this process to observe's per-path values of one n-path ensemble that
    every scheme in kinds steps on the same draws.  A path counts as
    diverged for f when it diverged or f of its value is not finite.

    Chunks run on the enclosing worker_pool's pool, or on one opened for
    this ensemble alone, and in this process when that pool has one worker
    or there is one chunk; they are reduced in chunk-index order.
    """
    if n < 1:
        raise ValueError(f"need at least one trajectory, got n={n}")
    funcs = [resolve_test_function(f) for f in fs]
    if not funcs:
        raise ValueError("need at least one test function")
    # sums, sumsqs, n_eff, n_div per (scheme, test function)
    acc = [[([], [], 0, 0) for _ in funcs] for _ in kinds]
    arglist = [(model, kinds, p, seed, s, min(CHUNK_TRAJECTORIES, n - s), observe)
               for s in range(0, n, CHUNK_TRAJECTORIES)]
    with worker_pool(workers) as pool:
        for observed in pool.imap(_worker, arglist):
            for per_f, (values, div) in zip(acc, observed):
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
    return [_assemble(*f_acc) for per_f in acc for f_acc in per_f]


def estimate_many(model, kind, fs, p, n, seed, workers: int = 1):
    """Estimate E[f(X_T)] for several test functions on one shared ensemble.

    kind is one SchemeKind or a nonempty sequence of them.  Every scheme
    steps the same n paths on the same increments, drawn once: a chunk's
    stream is made and read once for all of them.  Returns a flat list with
    one Estimate per (kind, f), kind-major; for one kind, one per entry of
    fs.  Each Estimate equals, bit for bit, the one a call with that kind
    alone gives.  Divergence is assessed per scheme and test function (a
    terminal that is fine for f(x)=x may still produce a non-finite 1/x).
    Raises ValueError, before simulating anything, when fs or the kind
    sequence is empty.
    """
    return _estimate(model, _scheme_kinds(kind), fs, p, n, seed, workers,
                     _terminal)


def estimate_expectation(model, kind, f, p, n, seed, workers: int = 1) -> Estimate:
    """Mean and stderr of f over the non-diverged terminals of an n-path
    ensemble at refinement level p.  Raises AllDivergedError if nothing
    survives, and TypeError, before simulating, unless kind is one
    SchemeKind."""
    _one_kind(kind)
    if n < 2:
        raise ValueError(f"need n >= 2 for a standard error, got n={n}")
    est = estimate_many(model, kind, [f], p, n, seed, workers=workers)[0]
    if est.n_effective == 0:
        raise AllDivergedError(
            f"all {n} trajectories diverged (scheme {kind.value}, p={p})"
        )
    return est


def weak_error_sweep(model, kind, f, p_list, n, reference, seed,
                     workers: int = 1):
    """One weak-error row per refinement level in p_list.

    kind is one SchemeKind, giving one WeakErrorTable, or a nonempty
    sequence of them, giving a list with one table per entry, each equal to
    the table of that kind swept alone.  At each level every scheme steps
    the same paths on the same increments, drawn once (see estimate_many);
    ensembles at different levels are independent (the level is part of
    the stream key).  A row is marked diverged when more than
    MARKER_FRACTION of its trajectories diverged or its mean is non-finite;
    the sweep never aborts on a bad row.
    """
    if not p_list:
        raise ValueError("p_list must be nonempty")
    kinds = _scheme_kinds(kind)
    rows = [[] for _ in kinds]
    for p in p_list:
        ests = estimate_many(model, kinds, [f], p, n, seed, workers=workers)
        for kind_rows, est in zip(rows, ests):
            marked = (est.n_diverged > MARKER_FRACTION * est.n_requested
                      or not math.isfinite(est.mean))
            abs_error = None
            if not marked:
                abs_error = abs(est.mean - reference.value)
            kind_rows.append(WeakErrorRow(
                p=p,
                dt=model.horizon / (1 << p),
                estimate=est,
                reference=reference,
                abs_error=abs_error,
                diverged=marked,
            ))
    tables = [WeakErrorTable(rows=tuple(r)) for r in rows]
    return tables[0] if isinstance(kind, SchemeKind) else tables


def moment_sweep(model, kind, orders, p, n, seed, workers: int = 1):
    """Empirical E[X_T^order] for each order, on one shared ensemble.

    Warns when an order exceeds the model's largest provably finite moment
    order (the estimate is still computed; blow-up across p is exactly what
    the caller may be probing).  Raises TypeError, before simulating,
    unless kind is one SchemeKind."""
    _one_kind(kind)
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
    raised.  Raises TypeError, before simulating, unless kind is one
    SchemeKind."""
    _one_kind(kind)
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
    return _estimate(model, (kind,), [lambda integral: np.exp(mu * integral)],
                     p, n, seed, workers, _riemann_integral)[0]
