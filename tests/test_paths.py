"""Stream determinism, distribution checks, and sequencing guarantees."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from expsde.cli import CASES
from expsde.montecarlo import estimate_many, simulate_paths
from expsde.paths import KEY_BLOCK, LANES, GaussianStream, make_stream, philox_keys
from expsde.reference import NUMERICS_VERSION
from expsde.schemes import SchemeKind, step
from conftest import ZeroStream, path_terminal


def test_same_key_same_sequence():
    a = make_stream(123, 4, 2).standard_normals(64)
    b = make_stream(123, 4, 2).standard_normals(64)
    assert a.shape == (1, 64)
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
    assert np.array_equal(one, np.concatenate(parts, axis=1))


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
    z = make_stream(42, 0, 2).standard_normals(1)[0, 0]
    model = CASES["case1"]
    states = simulate_paths(model, SchemeKind.SES, 2, make_stream(42, 0, 2))
    next(states)
    x, _ = next(states)
    assert x[0] == step(SchemeKind.SES, model, model.x0, 0.25, z * math.sqrt(0.25))


def test_next_increment_rejects_bad_dt():
    # a draw becomes an increment only over a positive step: the step that
    # consumes it refuses dt <= 0 for every scheme
    model = CASES["case1"]
    z = make_stream(0, 0, 0).standard_normals(1)[0, 0]
    for kind in SchemeKind:
        with pytest.raises(ValueError):
            step(kind, model, model.x0, 0.0, z * math.sqrt(0.0))


def test_mean_clt_bound():
    # CLT: |mean| < 4/sqrt(n) with n = 1e6, dt = 1
    draws = make_stream(2024, 0, 0).standard_normals(1_000_000)[0]
    assert abs(draws.mean()) < 4e-3


def test_variance_concentration():
    draws = make_stream(2025, 0, 0).standard_normals(1_000_000)[0]
    incs = draws * math.sqrt(0.25)
    assert abs(incs.var() - 0.25) < 0.02 * 0.25


def test_cross_correlation_small():
    a = make_stream(31, 0, 0).standard_normals(100_000)[0]
    b = make_stream(31, 1, 0).standard_normals(100_000)[0]
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.02


def test_normality_ks():
    draws = make_stream(515, 0, 0).standard_normals(100_000)[0]
    stat = stats.kstest(draws, "norm").statistic
    assert stat < 0.01


def test_zero_stream():
    z = ZeroStream()
    assert np.array_equal(z.standard_normals(5), np.zeros((1, 5)))
    assert z.standard_normals(1)[0, 0] * math.sqrt(0.5) == 0.0
    assert z.counter == 6


# ------------------------------------------------- bulk keys, lane groups

fixed = settings(max_examples=200, derandomize=True, deadline=None)
seeds = st.integers(min_value=0, max_value=2**160 - 1)


def solo_draws(seed, trajectory, level, n):
    """A trajectory's n draws alone, the plain numpy way: its lane of its
    group's generator, drawn step-major."""
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=(trajectory // LANES, level))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.standard_normal((n, LANES))[:, trajectory % LANES]


def test_frozen_draws_guard_the_numerics_version():
    # the first draws of a stream at a group's start and of one that starts
    # mid-group (trajectory 100 is lane 36 of group 1): a change of the
    # group layout or of LANES moves them, and must bump NUMERICS_VERSION
    assert NUMERICS_VERSION == 3
    assert make_stream(0, 0, 0, 2).standard_normals(3).tolist() == [
        [1.2918689310096432, -0.7747184769507146, -1.1120936949965137],
        [-0.22764034777211475, -0.23198549540129462, 0.9476266479587735]]
    assert make_stream(7, 100, 5, 3).standard_normals(2).tolist() == [
        [2.0609748208405296, -0.7925842821968117],
        [0.0005258789842403124, 0.05724688089129253],
        [0.2928580586524498, -0.9908974944253168]]


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
# neighbouring lanes of one group, and the last and first lanes of two
@example(keys=[(1, 63, 2), (1, 64, 2), (1, 65, 2)],
         schedule=[(0, 3), (1, 40), (2, 1), (0, 37), (2, 39)])
def test_interleaved_calls_equal_solo_draws(keys, schedule):
    # widths up to 40 against 2^level <= 32: some calls run past the draws
    # a path uses, and every row goes on drawing its own lane
    streams = [make_stream(*key) for key in keys]
    drawn = [[] for _ in keys]
    for index, width in schedule:
        index %= len(keys)
        drawn[index].append(streams[index].standard_normals(width)[0])
    for key, stream, parts in zip(keys, streams, drawn):
        total = sum(len(p) for p in parts)
        assert stream.counter == total
        got = np.concatenate(parts) if parts else np.empty(0)
        assert np.array_equal(got, solo_draws(*key, total))


@fixed
@given(seed=st.integers(0, 2**70), trajectory=st.integers(0, 2**40),
       level=st.integers(0, 6), counter=st.integers(0, 100),
       widths=st.lists(st.integers(0, 50), min_size=1, max_size=3))
@example(seed=9, trajectory=LANES - 1, level=3, counter=7, widths=[2, 9])
@example(seed=9, trajectory=LANES, level=3, counter=7, widths=[2, 9])
def test_counter_fast_forward_equals_solo_draws(seed, trajectory, level,
                                                counter, widths):
    stream = GaussianStream(seed, trajectory, level, counter=counter)
    got = np.concatenate([stream.standard_normals(w)[0] for w in widths])
    want = solo_draws(seed, trajectory, level, counter + sum(widths))
    assert np.array_equal(got, want[counter:])
    assert stream.counter == counter + sum(widths)


# ------------------------------------------------------------ chunk streams

def block_edge(block, offset):
    """A start `offset` trajectories before the end of a key block of
    lane groups."""
    return max(0, (block + 1) * KEY_BLOCK * LANES - offset)


def group_edge(group, offset):
    """A start `offset` trajectories before the end of a lane group."""
    return max(0, (group + 1) * LANES - offset)


starts = st.one_of(st.integers(0, 2**40),
                   st.builds(block_edge, st.integers(0, 2**24), st.integers(0, 40)),
                   st.builds(group_edge, st.integers(0, 2**34), st.integers(0, 40)))


@fixed
@given(seed=st.integers(0, 2**70), start=starts, count=st.integers(1, 48),
       level=st.integers(0, 6),
       widths=st.lists(st.integers(0, 40), min_size=1, max_size=5))
# runs that straddle a key block boundary, below and above a group index
# of 2^32
@example(seed=3, start=KEY_BLOCK * LANES - 5, count=12, level=2, widths=[4, 3])
@example(seed=0, start=2**32 * LANES - 7, count=16, level=4, widths=[16, 1])
@example(seed=2**64, start=(2**32 + KEY_BLOCK) * LANES - 1, count=2, level=0,
         widths=[0, 1, 2])
# runs that straddle one and two lane-group boundaries
@example(seed=3, start=KEY_BLOCK - 5, count=12, level=2, widths=[4, 3])
@example(seed=5, start=LANES - 3, count=LANES + 6, level=3, widths=[5, 2])
def test_chunk_rows_equal_one_row_streams(seed, start, count, level, widths):
    # widths up to 40 against 2^level <= 64: some calls run past the draws
    # a path uses, and every row goes on drawing its own lane
    chunk = make_stream(seed, start, level, count)
    rows = [make_stream(seed, start + i, level) for i in range(count)]
    parts = []
    for width in widths:
        got = chunk.standard_normals(width)
        assert got.shape == (count, width)
        for i, row in enumerate(rows):
            assert np.array_equal(got[i], row.standard_normals(width)[0])
        parts.append(got)
    total = sum(widths)
    assert chunk.counter == total
    got = np.concatenate(parts, axis=1)
    for i in (0, count - 1):
        assert np.array_equal(got[i], solo_draws(seed, start + i, level, total))


@fixed
@given(seed=st.integers(0, 2**70), start=starts, count=st.integers(1, 24),
       level=st.integers(0, 6), counter=st.integers(0, 100),
       widths=st.lists(st.integers(0, 50), min_size=1, max_size=3))
@example(seed=2, start=LANES - 10, count=20, level=1, counter=33,
         widths=[3, 0, 8])
def test_chunk_counter_fast_forwards_every_row(seed, start, count, level,
                                               counter, widths):
    chunk = GaussianStream(seed, start, level, count, counter=counter)
    got = np.concatenate([chunk.standard_normals(w) for w in widths], axis=1)
    for i in range(count):
        want = solo_draws(seed, start + i, level, counter + sum(widths))
        assert np.array_equal(got[i], want[counter:])


@pytest.mark.parametrize("case, kind", [("case1", SchemeKind.ExpES),
                                        ("case2", SchemeKind.TES)])
def test_ensemble_chunks_equal_one_row_paths(case, kind):
    # a partial last chunk (4096 + 37 paths) and 64 draw tiles (p = 11):
    # every terminal the ensemble sees is that of its own one-row path
    model, p, n, seed = CASES[case], 11, KEY_BLOCK + 37, 4
    seen = []

    def record(x):
        seen.append(x.copy())
        return x

    estimate_many(model, kind, [record], p, n, seed)
    terminals = np.concatenate(seen)
    assert len(seen) == 2 and len(terminals) == n
    for t in (0, 1, 2047, KEY_BLOCK - 1, KEY_BLOCK, KEY_BLOCK + 17, n - 1):
        terminal, _ = path_terminal(model, kind, p, make_stream(seed, t, p))
        assert terminals[t] == terminal, t
