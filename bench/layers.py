"""Outside-in layer tracing for the expsde benchmark.

Nothing under src/ knows about this file.  A Tracer replaces module
attributes of the package (the names each layer uses to call the next one)
with wrappers that record a span per call, and puts the originals back
afterwards.  A layer's self time is its span time minus the time of the
spans it caused.

Spans are aggregated in memory as they close, per span name, because a
single compare operation makes about half a million of them; the aggregate
(calls, total, self and the names of the spans that caused them) is what the
benchmark writes out at the end.

The process pool runs chunks in spawned children, where these wrappers do
not exist.  The pool layer is therefore seen from the parent only: the time
the parent spends creating the pool, waiting on its results and shutting it
down, plus the children's CPU time from RUSAGE_CHILDREN.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

perf_ns = time.perf_counter_ns


class _Frame:
    __slots__ = ("name", "child_ns", "children")

    def __init__(self, name):
        self.name = name
        self.child_ns = 0
        self.children = None  # names of the spans it caused, once it has any


class Tracer:
    """Span stack plus per-name aggregates: name -> [calls, total_ns, self_ns]."""

    def __init__(self):
        self.stats = {}
        self.parents = {}
        self.counts = Counter()
        self._stack = []
        self._saved = []

    # ------------------------------------------------------------ spans

    def _close(self, frame, dur):
        name = frame.name
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
            self.parents[name] = set()
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame.child_ns
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent.child_ns += dur
            if parent.children is None:
                parent.children = {name}
            else:
                parent.children.add(name)
            self.parents[name].add(parent.name)

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        frame = _Frame(name)
        self._stack.append(frame)
        t0 = perf_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_ns() - t0
            self._stack.pop()
            self._close(frame, dur)

    def wrap(self, fn, name, after=None):
        """Wrapper recording a span per call.  name may be a function of the
        positional arguments; after(tracer, frame, bound_args, result) runs
        outside the span."""
        signature = inspect.signature(fn) if after else None
        stack, close = self._stack, self._close
        dynamic = callable(name)

        # call()'s span logic, inlined: make_stream alone sees ~10^5 calls
        # per compare operation, so every attribute lookup here shows up in
        # trace.overhead_frac
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(name(args) if dynamic else name)
            stack.append(frame)
            t0 = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_ns() - t0
                stack.pop()
                close(frame, dur)
            if after is not None:
                after(self, frame, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # ---------------------------------------------------------- patching

    def patch(self, owner, attr, value):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, value)

    def patch_call(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        self.patch(owner, attr, self.wrap(fn, name, after))

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------ totals

    def calls(self, name):
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0, 0))[1] * 1e-9

    def self_s(self, name):
        return self.stats.get(name, (0, 0, 0))[2] * 1e-9

    def span_table(self):
        return {name: {"calls": st[0], "total_s": st[1] * 1e-9,
                       "self_s": st[2] * 1e-9,
                       "caused_by": sorted(self.parents[name])}
                for name, st in sorted(self.stats.items())}


# ------------------------------------------------------- pool, parent side

class _PoolProxy:
    def __init__(self, pool, tracer):
        self._pool = pool
        self._tracer = tracer

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._tracer.call("montecarlo.pool", self._pool.__exit__, *exc)

    def imap(self, func, iterable, chunksize=1):
        it = self._pool.imap(func, iterable, chunksize)
        while True:
            try:
                item = self._tracer.call("montecarlo.pool", next, it)
            except StopIteration:
                return
            yield item

    def __getattr__(self, name):
        return getattr(self._pool, name)


class _ContextProxy:
    def __init__(self, ctx, tracer):
        self._ctx = ctx
        self._tracer = tracer

    def Pool(self, *args, **kwargs):
        self._tracer.counts["pools"] += 1
        pool = self._tracer.call("montecarlo.pool", self._ctx.Pool, *args, **kwargs)
        return _PoolProxy(pool, self._tracer)

    def __getattr__(self, name):
        return getattr(self._ctx, name)


class _MultiprocessingProxy:
    def __init__(self, mp, tracer):
        self._mp = mp
        self._tracer = tracer

    def get_context(self, method=None):
        return _ContextProxy(self._mp.get_context(method), self._tracer)

    def __getattr__(self, name):
        return getattr(self._mp, name)


# ------------------------------------------------------------ the layers

def _after_estimate_many(tracer, frame, args, result):
    c = tracer.counts
    c["traj_steps"] += max(e.n_requested for e in result) << args["p"]
    for e in result:
        c["diverged_paths"] += e.n_diverged
        c["n_effective"] += e.n_effective
        c["n_requested"] += e.n_requested


def _after_reference(tracer, frame, args, result):
    miss = "montecarlo.estimate_many" in (frame.children or ())
    tracer.counts["cache_misses" if miss else "cache_hits"] += 1


def install(tracer, pkg):
    """Wrap every layer boundary of the imported package pkg."""
    analysis, cli, montecarlo = pkg.analysis, pkg.cli, pkg.montecarlo
    paths, reference, schemes = pkg.paths, pkg.reference, pkg.schemes
    counts = tracer.counts

    def draws(self, n, _orig=paths.GaussianStream.standard_normals):
        counts["draws"] += int(n)
        return _orig(self, n)

    def elems(kind, model, x, *rest, _orig=montecarlo.step_values, **kw):
        counts["elems." + kind.value] += len(x)
        return _orig(kind, model, x, *rest, **kw)

    tracer.patch_call(cli, "main", "cli.main")
    tracer.patch_call(cli, "build_case_table", "analysis.build_case_table")
    tracer.patch_call(cli, "render_compare_csv", "analysis.render_compare_csv")
    for owner in (analysis, reference):
        tracer.patch_call(owner, "fine_grid_reference",
                          "reference.fine_grid_reference", _after_reference)
    for owner in (montecarlo, reference):
        tracer.patch_call(owner, "estimate_many", "montecarlo.estimate_many",
                          _after_estimate_many)
    tracer.patch(montecarlo, "multiprocessing",
                 _MultiprocessingProxy(montecarlo.multiprocessing, tracer))
    tracer.patch(montecarlo, "make_stream",
                 tracer.wrap(montecarlo.make_stream, "paths.make_stream"))
    tracer.patch(paths.GaussianStream, "standard_normals",
                 tracer.wrap(draws, "paths.standard_normals"))
    tracer.patch(montecarlo, "step_values",
                 tracer.wrap(elems, lambda a: "schemes.step_values." + a[0].value))
    tracer.patch_call(schemes, "drift_eval", "models.drift_eval")
