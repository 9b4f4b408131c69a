"""Stream determinism, distribution checks, and sequencing guarantees."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from expsde.cli import CASES
from expsde.montecarlo import simulate_paths
from expsde.paths import KEY_BLOCK, GaussianStream, make_stream, philox_keys
from expsde.schemes import SchemeKind, step
from conftest import ZeroStream


def test_same_key_same_sequence():
    a = make_stream(123, 4, 2).standard_normals(64)
    b = make_stream(123, 4, 2).standard_normals(64)
    assert np.array_equal(a, b)


def test_any_key_field_changes_sequence():
    base = make_stream(123, 4, 2).standard_normals(16)
    for seed, traj, level in [(124, 4, 2), (123, 5, 2), (123, 4, 3)]:
        other = make_stream(seed, traj, level).standard_normals(16)
        assert not np.array_equal(base, other)


def test_draw_order_independence():
    # trajectory 5's numbers do not depend on whether trajectory 3 drew first
    s5_only = make_stream(9, 5, 0).standard_normals(32)
    s3 = make_stream(9, 3, 0)
    s3.standard_normals(100)
    s5_after = make_stream(9, 5, 0).standard_normals(32)
    assert np.array_equal(s5_only, s5_after)


def test_segmented_draws_equal_one_shot():
    # the Monte Carlo engine draws each trajectory's normals in column
    # blocks; generator calls must concatenate exactly
    one = make_stream(77, 0, 6).standard_normals(4096)
    s = make_stream(77, 0, 6)
    parts = [s.standard_normals(k) for k in (1, 7, 120, 968, 3000)]
    assert np.array_equal(one, np.concatenate(parts))


def test_counter_fast_forward():
    s = make_stream(5, 1, 1)
    s.standard_normals(10)
    tail = s.standard_normals(8)
    resumed = GaussianStream(5, 1, 1, counter=10)
    assert np.array_equal(tail, resumed.standard_normals(8))


def test_increment_is_draw_times_sqrt_dt():
    # the path stepper turns the k-th draw into the k-th Brownian increment
    # z_k * sqrt(dt): at p = 2 (dt = 0.25) its first state is one step with
    # that increment
    z = make_stream(42, 0, 2).standard_normals(1)[0]
    model = CASES["case1"]
    states = simulate_paths(model, SchemeKind.SES, 2, [make_stream(42, 0, 2)])
    next(states)
    x, _ = next(states)
    assert x[0] == step(SchemeKind.SES, model, model.x0, 0.25, z * math.sqrt(0.25))


def test_next_increment_rejects_bad_dt():
    # a draw becomes an increment only over a positive step: the step that
    # consumes it refuses dt <= 0 for every scheme
    model = CASES["case1"]
    z = make_stream(0, 0, 0).standard_normals(1)[0]
    for kind in SchemeKind:
        with pytest.raises(ValueError):
            step(kind, model, model.x0, 0.0, z * math.sqrt(0.0))


def test_mean_clt_bound():
    # CLT: |mean| < 4/sqrt(n) with n = 1e6, dt = 1
    draws = make_stream(2024, 0, 0).standard_normals(1_000_000)
    assert abs(draws.mean()) < 4e-3


def test_variance_concentration():
    draws = make_stream(2025, 0, 0).standard_normals(1_000_000)
    incs = draws * math.sqrt(0.25)
    assert abs(incs.var() - 0.25) < 0.02 * 0.25


def test_cross_correlation_small():
    a = make_stream(31, 0, 0).standard_normals(100_000)
    b = make_stream(31, 1, 0).standard_normals(100_000)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.02


def test_normality_ks():
    draws = make_stream(515, 0, 0).standard_normals(100_000)
    stat = stats.kstest(draws, "norm").statistic
    assert stat < 0.01


def test_zero_stream():
    z = ZeroStream()
    assert np.array_equal(z.standard_normals(5), np.zeros(5))
    assert z.standard_normals(1)[0] * math.sqrt(0.5) == 0.0
    assert z.counter == 6


# ------------------------------------------------ bulk keys, shared generator

fixed = settings(max_examples=200, derandomize=True, deadline=None)
seeds = st.integers(min_value=0, max_value=2**160 - 1)


def solo_draws(seed, trajectory, level, n):
    """The stream drawn the plain numpy way, one generator per stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trajectory, level))
    return np.random.Generator(np.random.Philox(ss)).standard_normal(n)


@fixed
@given(seed=seeds, trajectory=st.integers(0, 2**40 - 1),
       level=st.integers(0, 2**33))
# word boundaries of the seed (padding to four words), the trajectory and
# the level
@example(seed=0, trajectory=0, level=0)
@example(seed=2**128 - 1, trajectory=2**32 - 1, level=2**32 - 1)
@example(seed=2**128, trajectory=2**32, level=2**32)
@example(seed=2**32, trajectory=2**32 + KEY_BLOCK - 1, level=2**33)
def test_bulk_keys_equal_seed_sequence(seed, trajectory, level):
    block, index = divmod(trajectory, KEY_BLOCK)
    keys = philox_keys(seed, block, level)
    want = np.random.SeedSequence(
        entropy=seed, spawn_key=(trajectory, level)).generate_state(2, np.uint64)
    assert keys.shape == (KEY_BLOCK, 2) and keys.dtype == np.uint64
    assert np.array_equal(keys[index], want)
    # spawn key (trajectory,), the key of a stream shared by every level
    unlevelled = np.random.SeedSequence(
        entropy=seed, spawn_key=(trajectory,)).generate_state(2, np.uint64)
    assert np.array_equal(philox_keys(seed, block)[index], unlevelled)


@fixed
@given(keys=st.lists(st.tuples(st.integers(0, 2**70), st.integers(0, 2**33),
                               st.integers(0, 5)),
                     min_size=1, max_size=4, unique=True),
       schedule=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)),
                         max_size=30))
def test_interleaved_calls_equal_solo_draws(keys, schedule):
    # widths up to 40 against 2^level <= 32: some calls run past the draws
    # a path uses, after which the stream replays from its key
    streams = [make_stream(*key) for key in keys]
    drawn = [[] for _ in keys]
    for index, width in schedule:
        index %= len(keys)
        drawn[index].append(streams[index].standard_normals(width))
    for key, stream, parts in zip(keys, streams, drawn):
        total = sum(len(p) for p in parts)
        assert stream.counter == total
        got = np.concatenate(parts) if parts else np.empty(0)
        assert np.array_equal(got, solo_draws(*key, total))


@fixed
@given(seed=st.integers(0, 2**70), trajectory=st.integers(0, 2**40),
       level=st.integers(0, 6), counter=st.integers(0, 100),
       widths=st.lists(st.integers(0, 50), min_size=1, max_size=3))
def test_counter_fast_forward_equals_solo_draws(seed, trajectory, level,
                                                counter, widths):
    stream = GaussianStream(seed, trajectory, level, counter=counter)
    got = np.concatenate([stream.standard_normals(w) for w in widths])
    want = solo_draws(seed, trajectory, level, counter + sum(widths))
    assert np.array_equal(got, want[counter:])
    assert stream.counter == counter + sum(widths)
