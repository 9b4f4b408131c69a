"""Ensemble simulation: weak-error estimation, divergence accounting, and
empirical moment checks, deterministically parallel.

Trajectories are processed in fixed chunks of CHUNK_TRAJECTORIES.  Each
trajectory draws its normals from its own lane of a keyed lane-group
stream, a row of the one stream a chunk draws through (paths.make_stream),
stepping is vectorized across the chunk, every scheme of an ensemble steps
in lockstep on the chunk's one pass of draws, and chunk results are
reduced in chunk-index order: sums through a pairwise tree with
compensated addition, and each chunk's (count, mean, M2) moments, for the
standard error, by Chan, Golub and LeVeque's merge.  Neither the worker
count nor the scheduling order can change any output bit (workers only
compute whole chunks, which are pure functions of the chunk index).

N workers are this process and the N - 1 children of one pool per
worker_pool entry: a command opens it once around all of its ensembles,
and the pool is only started at the first ensemble with more than one
chunk, so a command that never needs it starts no process.  This process
runs every chunk whose index is a multiple of N, the children the others,
each child fed its chunks over its own pipe.  On Linux the children are
forked, so they start with numpy and this package already imported;
elsewhere they are spawned and import them afresh.  A child that dies is
an error, never a wait.

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

from .models import alpha_gate_ok, exp_moment_bound, max_moment_order
from .paths import make_stream
from .schemes import DIVERGENCE_CAP, SchemeKind, alive, step_values

__all__ = [
    "Estimate",
    "WeakErrorRow",
    "WeakErrorTable",
    "TEST_FUNCTIONS",
    "resolve_test_function",
    "estimate_many",
    "weak_error_sweep",
    "moment_sweep",
    "exp_moment_estimate",
    "simulate_paths",
    "worker_pool",
]

CHUNK_TRAJECTORIES = 4096
TILE_STEPS = 32  # steps per standard_normals call (see _lockstep_paths)
MARKER_FRACTION = 0.01  # a table row renders "-" above this diverged share


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
    and is flagged from then on.  Draws 2^p standard normals per row,
    TILE_STEPS steps per standard_normals call, and stops early (without
    drawing the rest) once every path has diverged.
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

    The stream's draws come TILE_STEPS steps per standard_normals call, as
    the transpose of a step-major (steps, count) block; that block times
    sqrt(dt) holds one step's increments per contiguous row, shared by
    every scheme.

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
    for k0 in range(0, n_steps, TILE_STEPS):
        incs = streams.standard_normals(min(TILE_STEPS, n_steps - k0)).T * sqdt
        for dw in incs:
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


def _serve(conn):
    """A child's loop: answer each (func, args) that conn brings with
    (True, func(args)), or with (False, exc) when func raises exc, until
    the parent closes its end or terminates this process."""
    while True:
        try:
            func, args = conn.recv()
        except EOFError:
            return
        try:
            reply = True, func(args)
        except Exception as exc:
            reply = False, exc
        conn.send(reply)


class _Child:
    """A pool child: its process, this process's end of its pipe, and the
    number of tasks sent to it whose result has not been received."""

    __slots__ = ("process", "conn", "unread")

    def __init__(self, process, conn):
        self.process, self.conn, self.unread = process, conn, 0


class _LazyPool:
    """`workers` workers, at most one per CPU: this process and workers - 1
    child processes, started at the first map with more than one worker
    and more than one task.  Each child serves tasks over its own pipe
    (_serve), at most two of them outstanding: the one it computes and the
    one it starts once it has sent that result, so it never waits for this
    process to hand it work, and an ensemble that fails leaves at most two
    results per child, which the next ensemble reads and drops.  A child
    that dies, or whose pipe breaks, closes the pool and raises
    RuntimeError; an exception its task raises is raised here as it is.

    The children are forked on Linux and spawned elsewhere: macOS's
    Accelerate-backed numpy is not fork-safe, and Windows cannot fork.  A
    forked child needs no import and runs the same pure _chunk_payload as
    a spawned one, or as this process, so neither the start method nor the
    process a task runs in changes an output bit.  A spawned child
    re-imports the calling script, which must therefore guard its entry
    code with `if __name__ == "__main__":`; an unguarded script makes its
    children die at start-up, which raises the RuntimeError.
    """

    def __init__(self, workers):
        self.workers = min(workers, os.cpu_count() or 1)
        self._children = []

    def imap(self, func, arglist):
        """func over arglist, yielded in task order.  Task i runs in this
        process when i % workers == 0 and in child i % workers - 1
        otherwise; each child has its first two tasks before this process
        starts its own."""
        w = self.workers
        if w <= 1 or len(arglist) <= 1:
            return map(func, arglist)
        if not self._children:
            ctx = multiprocessing.get_context("fork" if sys.platform == "linux" else "spawn")
            for _ in range(w - 1):
                conn, child_end = ctx.Pipe()
                process = ctx.Process(target=_serve, args=(child_end,), daemon=True)
                process.start()
                child_end.close()
                self._children.append(_Child(process, conn))
        return self._imap(func, arglist)

    def _imap(self, func, arglist):
        w = self.workers
        for child in self._children:
            # the unread results of an ensemble that failed
            while child.unread:
                self._receive(child)
        todo = [arglist[j::w] for j in range(1, w)]
        for child, tasks in zip(self._children, todo):
            for args in tasks[:2]:
                self._send(child, func, args)
        for i, args in enumerate(arglist):
            if not i % w:
                yield func(args)
                continue
            # task i is task i // w of its child, which gets its next task
            # once this one's result is in
            child, tasks = self._children[i % w - 1], todo[i % w - 1]
            ok, value = self._receive(child)
            if not ok:
                raise value
            if i // w + 2 < len(tasks):
                self._send(child, func, tasks[i // w + 2])
            yield value

    def _send(self, child, func, args):
        try:
            child.conn.send((func, args))
        except ConnectionError:
            raise self._lost(child) from None
        child.unread += 1

    def _receive(self, child):
        try:
            reply = child.conn.recv()
        except (EOFError, ConnectionError):
            raise self._lost(child) from None
        child.unread -= 1
        return reply

    def _lost(self, child):
        """Close the pool, and the error that child's death makes."""
        self.close()
        return RuntimeError(
            f"worker process {child.process.pid} exited with code "
            f"{child.process.exitcode} before returning its chunk (a spawned "
            "worker exits at start-up when the calling script does not keep "
            'its entry code under `if __name__ == "__main__":`)')

    def close(self):
        """Terminate every child and join it: SIGTERM, so that no child
        stuck sending a result can block the close."""
        for child in self._children:
            child.process.terminate()
        for child in self._children:
            child.process.join()
            child.conn.close()
        self._children = []


_open_pool = None


@contextlib.contextmanager
def worker_pool(workers):
    """Share one worker pool among every ensemble run inside the block.

    `workers` counts this process: the pool holds workers - 1 children, at
    most one fewer than the CPUs.  Reentrant: the outermost entry sets the
    worker count and nested entries reuse its pool, whatever count they
    name.  No process is started until an ensemble with more than one chunk
    runs with more than one worker.  When the outermost entry exits, also
    by an exception, its children are terminated and joined.  A child that
    dies closes the pool and raises RuntimeError; a later ensemble in the
    block starts a new one.
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


def _assemble(sums, moments, n_div):
    """One Estimate from per-chunk sums and (count, mean, M2) moments, in
    chunk-index order.  The mean is the compensated tree sum of the chunk
    sums over the count; the variance merges the chunk moments one after
    another (Chan, Golub & LeVeque 1979), so it does not cancel when the
    spread is small against the mean."""
    n_eff, run_mean, m2 = 0, 0.0, 0.0
    for n_c, mean_c, m2_c in moments:
        if n_c:
            n = n_eff + n_c
            delta = mean_c - run_mean
            run_mean += delta * n_c / n
            m2 += m2_c + delta * delta * n_eff * n_c / n
            n_eff = n
    if n_eff == 0:
        return Estimate(mean=math.nan, stderr=math.inf,
                        n_effective=0, n_diverged=n_div)
    mean = _tree_sum(sums) / n_eff
    var = m2 / (n_eff - 1) if n_eff > 1 else math.inf
    # an overflowed square gives inf or nan: no finite stderr
    stderr = math.sqrt(var / n_eff) if math.isfinite(var) else math.inf
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

    Chunks run on the enclosing worker_pool's workers, or on ones opened
    for this ensemble alone, all in this process when there is one worker
    or one chunk; they are reduced in chunk-index order.
    """
    if n < 1:
        raise ValueError(f"need at least one trajectory, got n={n}")
    funcs = [resolve_test_function(f) for f in fs]
    if not funcs:
        raise ValueError("need at least one test function")
    # chunk sums, chunk (count, mean, M2) moments, n_div per (scheme, test function)
    acc = [[([], [], 0) for _ in funcs] for _ in kinds]
    arglist = [(model, kinds, p, seed, s, min(CHUNK_TRAJECTORIES, n - s), observe)
               for s in range(0, n, CHUNK_TRAJECTORIES)]
    with worker_pool(workers) as pool:
        for observed in pool.imap(_worker, arglist):
            for per_f, (values, div) in zip(acc, observed):
                for idx, func in enumerate(funcs):
                    sums, moments, n_div = per_f[idx]
                    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                        vals = np.asarray(func(values), dtype=np.float64)
                        good = ~div & np.isfinite(vals)
                        n_c = int(good.sum())
                        total = float(np.sum(np.where(good, vals, 0.0)))
                        mean_c = total / n_c if n_c else 0.0
                        dev = np.where(good, vals - mean_c, 0.0)
                        m2_c = float(np.sum(dev * dev))
                    sums.append(total)
                    moments.append((n_c, mean_c, m2_c))
                    per_f[idx] = (sums, moments, n_div + good.size - n_c)
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


def weak_error_sweep(model, kind, f, p_list, n, reference, seed,
                     workers: int = 1):
    """One weak-error row per refinement level in p_list.

    kind is one SchemeKind, giving one WeakErrorTable, or a nonempty
    sequence of them, giving a list with one table per entry, each equal to
    the table of that kind swept alone.  Likewise f is one test function
    measured against reference, or a nonempty sequence of them with a
    sequence of as many references, giving a list with one entry per test
    function, each equal to what sweeping that function alone gives.  At
    each level one estimate_many call steps every scheme on the same paths
    and increments, drawn once, and applies every test function to them;
    ensembles at different levels are independent (the level is part of
    the stream key).  A row is marked diverged when more than
    MARKER_FRACTION of its trajectories diverged or its mean is non-finite;
    the sweep never aborts on a bad row.
    """
    if not p_list:
        raise ValueError("p_list must be nonempty")
    kinds = _scheme_kinds(kind)
    one_f = isinstance(f, str) or callable(f)
    fs, refs = ([f], [reference]) if one_f else (list(f), list(reference))
    if len(refs) != len(fs):
        raise ValueError(f"{len(fs)} test functions but {len(refs)} references")
    rows = [[[] for _ in kinds] for _ in fs]
    for p in p_list:
        # kind-major: the estimate of (kinds[i], fs[j]) is ests[i * len(fs) + j]
        ests = iter(estimate_many(model, kinds, fs, p, n, seed, workers=workers))
        for i in range(len(kinds)):
            for f_rows, ref in zip(rows, refs):
                est = next(ests)
                marked = (est.n_diverged > MARKER_FRACTION * est.n_requested
                          or not math.isfinite(est.mean))
                f_rows[i].append(WeakErrorRow(
                    p=p,
                    dt=model.horizon / (1 << p),
                    estimate=est,
                    abs_error=None if marked else abs(est.mean - ref.value),
                    diverged=marked,
                ))
    tables = [[WeakErrorTable(rows=tuple(r)) for r in f_rows] for f_rows in rows]
    if isinstance(kind, SchemeKind):
        tables = [f_tables[0] for f_tables in tables]
    return tables[0] if one_f else tables


def moment_sweep(model, kind, orders, p, n, seed, workers: int = 1):
    """Empirical E[X_T^order] for each order, on one shared ensemble.

    Warns when an order exceeds the model's largest provably finite moment
    order (the estimate is still computed; blow-up across p is exactly what
    the caller may be probing).  A GeneralDriftModel needs its declared
    growth.B2, which sets that order; without it InsufficientMetadataError
    is raised.  Raises TypeError, before simulating, unless kind is one
    SchemeKind."""
    _one_kind(kind)
    bound = max_moment_order(model)
    for order in orders:
        if order > bound:
            warnings.warn(
                f"moment order {order} exceeds the provable bound "
                f"{bound:.6g}; estimate may blow up",
                stacklevel=2,
            )
    funcs = [(lambda o: (lambda x: np.power(x, float(o))))(o) for o in orders]
    ests = estimate_many(model, kind, funcs, p, n, seed, workers=workers)
    return dict(zip(orders, ests))


def exp_moment_estimate(model, kind, mu, p, n, seed, workers: int = 1) -> Estimate:
    """Empirical E[exp(mu * I_T)] with I_T the left-endpoint Riemann sum of
    X^(2 alpha - 2) on the simulation grid.  Overflowing trajectories count
    as diverged.  A GeneralDriftModel needs its declared growth.B2, which
    sets the bound checked against mu; without it InsufficientMetadataError
    is raised.  Raises TypeError, before simulating, unless kind is one
    SchemeKind."""
    _one_kind(kind)
    bound = exp_moment_bound(model)
    if mu > bound:
        warnings.warn(
            f"mu={mu} exceeds the exponential-moment bound {bound:.6g} "
            "for this model; the estimate may be infinite in the limit",
            stacklevel=2,
        )
    if not alpha_gate_ok(model):
        warnings.warn(
            "exponential-moment bound is only established for alpha > 3/2 "
            "when b(0) > 0",
            stacklevel=2,
        )
    return _estimate(model, (kind,), [lambda integral: np.exp(mu * integral)],
                     p, n, seed, workers, _riemann_integral)[0]
