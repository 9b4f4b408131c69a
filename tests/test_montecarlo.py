"""Engine determinism, reduction invariance, and estimator semantics."""

import math
import multiprocessing
import os
import sys
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from expsde.analysis import _CELL_ERRORS
from expsde.cli import CASES
from expsde.models import (GeneralDriftModel, GrowthMetadata,
                           InsufficientMetadataError, PrototypeModel)
from expsde.montecarlo import (
    TEST_FUNCTIONS,
    _estimate,
    _terminal,
    estimate_many,
    exp_moment_estimate,
    moment_sweep,
    resolve_test_function,
    simulate_paths,
    weak_error_sweep,
    worker_pool,
)
from expsde.paths import make_stream
from expsde.reference import fine_grid_reference
from expsde.schemes import SchemeKind
from conftest import STEP_AGREEMENT, path_terminal

CASE1 = PrototypeModel(b2=2.0, sigma=0.1, alpha=1.5)
CASE2 = PrototypeModel(b2=3.0, sigma=1.0, alpha=1.25)


def test_constant_function_exact():
    est = estimate_many(CASE1, SchemeKind.ExpES, [lambda x: np.ones_like(x)],
                        p=2, n=500, seed=1)[0]
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.n_effective == 500
    assert est.n_diverged == 0


def test_engine_matches_scalar_simulation():
    # ensemble rows are bit-identical to per-trajectory scalar runs
    n, p, seed = 40, 3, 99
    terminals = np.array([
        path_terminal(CASE1, SchemeKind.ExpES, p, make_stream(seed, i, p))[0]
        for i in range(n)
    ])
    est = estimate_many(CASE1, SchemeKind.ExpES, ["x"], p=p, n=n, seed=seed)[0]
    assert est.mean == np.sum(terminals) / n


def test_same_seed_reproducible():
    a = estimate_many(CASE1, SchemeKind.SES, ["x"], p=3, n=300, seed=5)[0]
    b = estimate_many(CASE1, SchemeKind.SES, ["x"], p=3, n=300, seed=5)[0]
    assert a == b
    c = estimate_many(CASE1, SchemeKind.SES, ["x"], p=3, n=300, seed=6)[0]
    assert c.mean != a.mean


def test_worker_count_invariance():
    # two chunks, reduced identically regardless of the worker pool
    kw = dict(p=2, n=6000, seed=17)
    serial = estimate_many(CASE1, SchemeKind.ExpES, ["x"], workers=1, **kw)[0]
    parallel = estimate_many(CASE1, SchemeKind.ExpES, ["x"], workers=2, **kw)[0]
    assert serial == parallel


def test_estimate_many_shares_ensemble():
    ests = estimate_many(CASE1, SchemeKind.ExpES, ["x", "x2"], p=3, n=400, seed=3)
    only_x = estimate_many(CASE1, SchemeKind.ExpES, ["x"], p=3, n=400, seed=3)[0]
    assert ests[0] == only_x


def test_accounting_reconciles():
    for scheme in (SchemeKind.ExpES, SchemeKind.TES, SchemeKind.STES):
        est = estimate_many(CASE2, scheme, ["x"], p=2, n=1000, seed=8)[0]
        assert est.n_effective + est.n_diverged == 1000


def test_tamed_scheme_divergence_counted():
    # coarse steps drive tamed-Euler paths negative, where the fractional
    # drift power is NaN; a visible share of trajectories must be excluded
    est = estimate_many(CASE2, SchemeKind.TES, ["x"], p=2, n=2000, seed=12)[0]
    assert est.n_diverged > 0.05 * 2000
    ref = estimate_many(CASE2, SchemeKind.ExpES, ["x"], p=2, n=2000, seed=12)[0]
    assert ref.n_diverged == 0


def test_bounded_function_bounded_mean():
    est = estimate_many(CASE2, SchemeKind.ExpES, ["exp_neg_x2"], p=4, n=2000, seed=2)[0]
    assert abs(est.mean) <= 1.0


def test_all_diverged_gives_no_estimate():
    est = estimate_many(CASE1, SchemeKind.ExpES, [lambda x: np.full_like(x, np.nan)],
                        p=2, n=50, seed=1)[0]
    assert est.n_effective == 0 and est.n_diverged == 50
    assert math.isnan(est.mean) and est.stderr == math.inf


def test_sweep_single_row_is_estimate_plus_subtraction():
    ref = SimpleNamespace(value=0.25)
    est = estimate_many(CASE1, SchemeKind.ExpES, ["x"], p=3, n=500, seed=4)[0]
    table = weak_error_sweep(CASE1, SchemeKind.ExpES, "x", [3], 500, ref, seed=4)
    row = table.row(3)
    assert row.estimate == est
    assert row.abs_error == abs(est.mean - 0.25)
    assert row.dt == 0.125


def test_sweep_zero_error_when_reference_equals_mean():
    est = estimate_many(CASE1, SchemeKind.ExpES, ["x"], p=2, n=200, seed=9)[0]
    ref = SimpleNamespace(value=est.mean)
    table = weak_error_sweep(CASE1, SchemeKind.ExpES, "x", [2], 200, ref, seed=9)
    assert table.row(2).abs_error == 0.0


def test_sweep_marks_divergent_rows_and_continues():
    ref = SimpleNamespace(value=0.14)
    table = weak_error_sweep(CASE2, SchemeKind.TES, "x", [2, 6], 2000, ref, seed=21)
    assert table.row(2).diverged
    assert table.row(2).abs_error is None
    assert not table.row(6).diverged
    assert table.row(6).abs_error is not None


def test_sweep_rejects_empty_p_list():
    with pytest.raises(ValueError):
        weak_error_sweep(CASE1, SchemeKind.ExpES, "x", [], 100,
                         SimpleNamespace(value=0.0), seed=1)


def test_moment_sweep_order_zero():
    ests = moment_sweep(CASE1, SchemeKind.ExpES, [0, 2], p=3, n=300, seed=6)
    assert ests[0].mean == 1.0
    assert ests[0].stderr == 0.0
    assert ests[2].mean > 0.0


def test_moment_sweep_warns_beyond_bound():
    # case 3: max finite moment order is 1 + 2*1/1 = 3
    case3 = PrototypeModel(b2=1.0, sigma=1.0, alpha=1.5)
    with pytest.warns(UserWarning, match="exceeds the provable bound"):
        moment_sweep(case3, SchemeKind.ExpES, [4], p=3, n=200, seed=2)


def test_exp_moment_mu_zero_exact():
    est = exp_moment_estimate(CASE1, SchemeKind.ExpES, 0.0, p=3, n=200, seed=3)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_exp_moment_negative_mu_below_one():
    est = exp_moment_estimate(CASE1, SchemeKind.ExpES, -0.5, p=4, n=500, seed=7)
    assert est.mean <= 1.0
    assert est.mean > 0.0


def test_exp_moment_warns_above_bound():
    # case 1 bound: (0.01 + 4)^2 / 0.08 ~ 201
    with pytest.warns(UserWarning, match="exponential-moment bound"):
        exp_moment_estimate(CASE1, SchemeKind.ExpES, 250.0, p=3, n=100, seed=1)


def test_exp_moment_seed_consistency():
    # independent replications at the same level agree statistically; the
    # level itself is held fixed because the Riemann-sum bias (~dt) is far
    # larger than the tiny stderr of this tame integrand
    a = exp_moment_estimate(CASE1, SchemeKind.ExpES, 0.01, p=6, n=4000, seed=15)
    b = exp_moment_estimate(CASE1, SchemeKind.ExpES, 0.01, p=6, n=4000, seed=16)
    assert math.isfinite(a.mean) and math.isfinite(b.mean)
    assert abs(a.mean - b.mean) <= 5.0 * math.hypot(a.stderr, b.stderr)


@pytest.mark.parametrize("n", [0, -5])
def test_exp_moment_rejects_an_empty_ensemble(n):
    with pytest.raises(ValueError, match="at least one trajectory"):
        exp_moment_estimate(CASE1, SchemeKind.ExpES, 0.01, 3, n=n, seed=1)


def test_resolve_test_function():
    assert resolve_test_function("x2") is TEST_FUNCTIONS["x2"]
    f = lambda x: x + 1
    assert resolve_test_function(f) is f
    with pytest.raises(ValueError):
        resolve_test_function("cubic")


def test_inv_x_at_zero_counts_diverged():
    est = estimate_many(CASE1, SchemeKind.ExpES,
                        [lambda x: 1.0 / (x - x)], p=2, n=64, seed=2)[0]
    # every value is 1/0: all excluded
    assert est.n_effective == 0
    assert est.n_diverged == 64


def _case1_drift(x):
    return 0.0 + 0.0 * x - 2.0 * np.power(x, 2.0)


CASE1_GENERAL = GeneralDriftModel(drift=_case1_drift, b_at_zero=0.0,
                                  sigma=0.1, alpha=1.5)


def assert_agree(got, want, steps):
    """Estimates or references of two models whose paths step alike to
    STEP_AGREEMENT per step, over paths of `steps` steps: every float
    within steps * STEP_AGREEMENT relative, everything else equal."""
    rel = steps * STEP_AGREEMENT
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name, value in vars(w).items():
            if isinstance(value, float):
                assert math.isclose(getattr(g, name), value, rel_tol=rel, abs_tol=0.0), name
            else:
                assert getattr(g, name) == value, name


def test_general_drift_model_runs_like_prototype():
    # case1's polynomial written as a general drift: the engine reads only
    # the model protocol, and steps it through drift(x) where the prototype
    # takes its closed form, so the two agree to a few ulps per step and
    # count the same paths
    for kind in (SchemeKind.ExpES, SchemeKind.SES):
        general = estimate_many(CASE1_GENERAL, kind, ["x", "x2"], p=4, n=5000, seed=3)
        proto = estimate_many(CASES["case1"], kind, ["x", "x2"], p=4, n=5000, seed=3)
        assert_agree(general, proto, 1 << 4)
    ref = fine_grid_reference(CASE1_GENERAL, "x", n0=300, p_ref=6, seed=2,
                              use_cache=False)
    assert_agree([ref], [fine_grid_reference(CASES["case1"], "x", n0=300, p_ref=6,
                                             seed=2, use_cache=False)], 1 << 6)


def test_moment_sweep_needs_only_growth_b2():
    # the provable moment order reads B2 alone: a general drift declaring no
    # derivative exponents runs like case1, and warns above the same order
    # 1 + 2*B2/sigma^2 = 401
    general = GeneralDriftModel(drift=_case1_drift, b_at_zero=0.0, sigma=0.1,
                                alpha=1.5, growth=GrowthMetadata(B1=0.0, B2=2.0,
                                                                 B1p=0.0, B2p=4.0))
    got = moment_sweep(general, SchemeKind.ExpES, [1, 2], 3, 200, 1)
    want = moment_sweep(CASES["case1"], SchemeKind.ExpES, [1, 2], 3, 200, 1)
    assert list(got) == [1, 2]
    assert_agree(list(got.values()), list(want.values()), 1 << 3)
    for model in (general, CASES["case1"]):
        with pytest.warns(UserWarning, match="order 402 exceeds the provable bound 401;"):
            moment_sweep(model, SchemeKind.ExpES, [402], 3, 200, 1)
    with pytest.raises(InsufficientMetadataError) as exc:
        moment_sweep(CASE1_GENERAL, SchemeKind.ExpES, [1], 3, 200, 1)
    assert exc.value.missing == ["growth.B2"]


def _case4_drift(x):
    return 1.0 + 1.0 * x - 0.4 * np.power(x, 5.0)


def _recorded(call):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in seen]


def test_exp_moment_general_drift_like_prototype():
    # the bound and its warnings read b_at_zero and the declared growth.B2;
    # case1 (b(0) = 0) and case4 (b(0) > 0) take the two branches, and each
    # mu list holds one value below and one above the bound
    pairs = [
        (CASES["case1"], GeneralDriftModel(
            drift=_case1_drift, b_at_zero=0.0, sigma=0.1, alpha=1.5,
            growth=GrowthMetadata(B1=0.0, B2=2.0, B1p=0.0, B2p=4.0)), (0.01, 250.0)),
        (CASES["case4"], GeneralDriftModel(
            drift=_case4_drift, b_at_zero=1.0, sigma=0.1, alpha=3.0,
            growth=GrowthMetadata(B1=1.0, B2=0.4, B1p=1.0, B2p=2.0)), (0.001, 0.01)),
    ]
    for proto, general, mus in pairs:
        for mu in mus:
            want, want_warnings = _recorded(lambda: exp_moment_estimate(
                proto, SchemeKind.ExpES, mu, p=4, n=300, seed=5))
            got, got_warnings = _recorded(lambda: exp_moment_estimate(
                general, SchemeKind.ExpES, mu, p=4, n=300, seed=5))
            assert_agree([got], [want], 1 << 4)
            assert got_warnings == want_warnings
        assert any("exponential-moment bound" in m for m in got_warnings)
    with pytest.raises(InsufficientMetadataError):
        exp_moment_estimate(CASE1_GENERAL, SchemeKind.ExpES, 0.01, p=2, n=10, seed=1)


def test_simulate_paths_yields_every_grid_time():
    streams = make_stream(5, 0, 3, 3)
    states = list(simulate_paths(CASE1, SchemeKind.ExpES, 3, streams))
    assert len(states) == (1 << 3) + 1
    assert all(x.shape == (3,) and div.shape == (3,) for x, div in states)
    assert np.array_equal(states[0][0], np.full(3, CASE1.x0))
    assert not any(div.any() for _, div in states)
    with pytest.raises(ValueError):
        next(simulate_paths(CASE1, SchemeKind.ExpES, -1, streams))


def test_stderr_does_not_cancel_against_a_large_mean():
    # x + 1e8 has the spread of x; a sum-of-squares variance cancels it to
    # zero, merged chunk moments keep it (9000 paths are three chunks)
    plain, shifted = estimate_many(CASE1, SchemeKind.ExpES,
                                   ["x", lambda x: x + 1e8], 3, 9000, 0)
    assert plain.stderr > 0.0
    assert shifted.stderr == pytest.approx(plain.stderr, rel=1e-6)


def test_overflowed_sum_of_squares_gives_infinite_stderr():
    # squares of values near 1e200 overflow: the standard error is unknown,
    # not zero, and the overflow is no warning of its own
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = estimate_many(CASE1, SchemeKind.ExpES, [lambda x: 1e200 * x],
                            3, 2000, 1)[0]
        assert math.isfinite(est.mean)
        assert est.stderr == math.inf
        est = exp_moment_estimate(CASE2, SchemeKind.ExpES, 400.0, 3, 2000, 1)
        assert math.isfinite(est.mean)
        assert est.stderr == math.inf
    # only the exponential-moment bound warning for mu = 400
    assert [w.category for w in caught] == [UserWarning]
    assert "exponential-moment bound" in str(caught[0].message)


def test_long_path_draws_stay_below_half_a_segment_block():
    # a chunk at p = 11 draws one TILE_STEPS tile of steps at a time; the
    # engine once drew (count, 1024) segment blocks, and its peak memory was
    # at least one such block
    count = 512
    block_bytes = count * 1024 * 8
    tracemalloc.start()
    try:
        for _ in simulate_paths(CASE1, SchemeKind.ExpES, 11,
                                make_stream(3, 0, 11, count)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * block_bytes, peak / block_bytes


def test_shared_pool_survives_a_failing_ensemble():
    # two chunks each, so both ensembles run on the pool
    kw = dict(n=6000, seed=17)
    serial = estimate_many(CASE1, SchemeKind.ExpES, ["x"], p=2, workers=1, **kw)
    with worker_pool(2):
        with pytest.raises(ValueError):
            estimate_many(CASE1, SchemeKind.ExpES, ["x"], p=-1, workers=2, **kw)
        assert len(multiprocessing.active_children()) == 1
        again = estimate_many(CASE1, SchemeKind.ExpES, ["x"], p=2, workers=2, **kw)
    assert again == serial
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("n", [4096, 4097, 12283, 20480, 20 * 4096])
def test_every_worker_count_matches_one_worker(workers, n, monkeypatch):
    # 1, 2, 3, 5 and 20 chunks, two of them ending in a short chunk; this
    # process runs chunks i % workers == 0 and workers - 1 forked or
    # spawned children the rest, each handed its next chunk as it returns
    # one
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    kinds = [SchemeKind.ExpES, SchemeKind.SES]
    serial = estimate_many(CASE1, kinds, ["x", "x2"], 3, n, 5, workers=1)
    assert estimate_many(CASE1, kinds, ["x", "x2"], 3, n, 5,
                         workers=workers) == serial
    assert multiprocessing.active_children() == []


def test_pool_yields_in_task_order(monkeypatch):
    # the children's results come in between this process's own, each at
    # its task's place
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with worker_pool(3) as pool:
        assert list(pool.imap(abs, [-i for i in range(7)])) == list(range(7))
    assert multiprocessing.active_children() == []


def test_worker_pool_exit_by_exception_leaves_no_child():
    # the pool handle stays referenced, so no garbage collection of the
    # pool can stand in for the exit
    with pytest.raises(RuntimeError, match="body failed"):
        with worker_pool(2) as pool:
            estimate_many(CASE1, SchemeKind.ExpES, ["x"], p=2, n=6000, seed=1,
                          workers=2)
            assert multiprocessing.active_children()
            raise RuntimeError("body failed")
    assert multiprocessing.active_children() == []


class ChildRefusal(ValueError):
    pass


def _dying(model, p, paths):
    """_terminal in this process; a child that runs it exits at once."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return _terminal(model, p, paths)


def _refusing(model, p, paths):
    """_terminal in this process; a child that runs it raises."""
    if multiprocessing.parent_process() is not None:
        raise ChildRefusal("a child refuses its chunk")
    return _terminal(model, p, paths)


def test_a_dead_worker_raises_and_leaves_no_child():
    # three chunks: this process runs 0 and 2, and the child dies on 1,
    # which must raise, not wait for chunk 1
    with pytest.raises(RuntimeError, match="exited with code 3"):
        _estimate(CASE1, (SchemeKind.ExpES,), ["x"], 2, 9000, 1, 2, _dying)
    assert multiprocessing.active_children() == []


def test_a_child_exception_keeps_its_type():
    # a ValueError raised in a child is raised here as itself, so the
    # report layer still turns it into a cell
    with pytest.raises(ChildRefusal, match="refuses") as info:
        _estimate(CASE1, (SchemeKind.ExpES,), ["x"], 2, 9000, 1, 2, _refusing)
    assert isinstance(info.value, _CELL_ERRORS)
    assert multiprocessing.active_children() == []


def test_results_of_a_failed_ensemble_never_reach_the_next(monkeypatch):
    # twenty chunks on two children: the first child result raises and
    # leaves both children with results unread, which the next ensemble on
    # the same pool must not take for its own
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    kinds = (SchemeKind.ExpES, SchemeKind.SES)
    n = 20 * 4096
    serial = _estimate(CASE1, kinds, ["x"], 2, n, 7, 1, _terminal)
    with worker_pool(3):
        with pytest.raises(ChildRefusal):
            _estimate(CASE1, kinds, ["x"], 2, n, 7, 3, _refusing)
        assert len(multiprocessing.active_children()) == 2
        assert _estimate(CASE1, kinds, ["x"], 2, n, 7, 3, _terminal) == serial
    assert multiprocessing.active_children() == []


def test_close_does_not_wait_on_a_child_stuck_sending():
    # the child's 4 MB result fills the pipe, and nothing reads it
    start = time.perf_counter()
    with worker_pool(2) as pool:
        results = pool.imap(bytes, [1 << 22, 1 << 22])
        assert len(next(results)) == 1 << 22
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - start < 60


def test_spawned_children_match_one_worker(monkeypatch):
    # the start method off Linux, run here for real: a spawned child
    # imports the package afresh and must still give the same bits
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    kinds = [SchemeKind.ExpES, SchemeKind.SES]
    serial = estimate_many(CASE1, kinds, ["x", "x2"], 3, 12283, 5, workers=1)
    assert estimate_many(CASE1, kinds, ["x", "x2"], 3, 12283, 5,
                         workers=2) == serial
    assert multiprocessing.active_children() == []
