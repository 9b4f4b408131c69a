"""The tiled path engine against a per-column oracle.

simulate_paths scales each step-major tile of TILE_STEPS draws by sqrt(dt)
in one pass and freezes diverged paths in place in the fresh kernel
output.  column_oracle is the plain engine: it scales one column of the
(count, steps) draws per step, tests finiteness and the cap separately and
freezes with np.where.  Both must agree bit for bit: the same number of
yields, the same states and masks, and the same number of draws taken from
the stream.
"""

import math

import numpy as np
import pytest

from expsde.cli import CASES
from expsde.montecarlo import TILE_STEPS, simulate_paths
from expsde.paths import LANES, make_stream
from expsde.schemes import DIVERGENCE_CAP, SchemeKind, step_values


def column_oracle(model, kind, p, streams):
    n_steps = 1 << p
    dt = model.horizon / n_steps
    sqdt = math.sqrt(dt)
    count = streams.count
    x = np.full(count, model.x0, dtype=np.float64)
    div = np.zeros(count, dtype=bool)
    yield x, div
    for k0 in range(0, n_steps, TILE_STEPS):
        block = streams.standard_normals(min(TILE_STEPS, n_steps - k0))
        for j in range(block.shape[1]):
            if div.all():
                return
            cand = step_values(kind, model, x, dt, block[:, j] * sqdt)
            with np.errstate(invalid="ignore"):
                ok = np.isfinite(cand) & (np.abs(cand) <= DIVERGENCE_CAP)
            div = div | ~ok
            x = np.where(div, x, cand)
            yield x, div


def assert_engines_agree(model, kind, p, seed, start, count):
    """Run both engines on equal streams; return the oracle's states."""
    want_stream = make_stream(seed, start, p, count)
    got_stream = make_stream(seed, start, p, count)
    want = list(column_oracle(model, kind, p, want_stream))
    got = list(simulate_paths(model, kind, p, got_stream))
    assert len(got) == len(want)
    for (gx, gdiv), (wx, wdiv) in zip(got, want):
        assert np.array_equal(gx, wx)
        assert np.array_equal(gdiv, wdiv)
    assert got_stream.counter == want_stream.counter
    return want


def test_tile_sizes_cover_the_cases_below():
    # p = 5 is one whole tile, p = 6 two, p = 11 sixty-four; 300 rows end
    # inside a lane group, which is drawn whole and cut
    assert TILE_STEPS == 1 << 5
    assert LANES == 1 << 6
    assert 300 % LANES != 0


@pytest.mark.parametrize("case", ["case2", "case4"])
@pytest.mark.parametrize("p", [0, 3, 5, 6, 11])
@pytest.mark.parametrize("count", [1, 300])
@pytest.mark.parametrize("kind", SchemeKind, ids=lambda k: k.value)
def test_tiled_engine_matches_column_oracle(case, p, count, kind):
    assert_engines_agree(CASES[case], kind, p, 21, 0, count)


# case2 tes and stes at coarse levels, seed 889: paths diverge part way
# through a tile; the one-row tes path at trajectory 131 diverges at step 5
# of 8, so the engine stops mid-tile after 6 of the 9 grid times
@pytest.mark.parametrize("kind,p,start,count,diverges,yields", [
    (SchemeKind.TES, 2, 0, 300, True, 5),
    (SchemeKind.TES, 3, 0, 300, True, 9),
    (SchemeKind.STES, 2, 0, 300, True, 5),
    (SchemeKind.STES, 3, 0, 300, False, 9),
    (SchemeKind.TES, 3, 131, 1, True, 6),
])
def test_divergence_mid_tile_matches_column_oracle(kind, p, start, count,
                                                   diverges, yields):
    states = assert_engines_agree(CASES["case2"], kind, p, 889, start, count)
    assert bool(states[-1][1].any()) == diverges
    assert len(states) == yields


@pytest.mark.parametrize("case,kind", [("case1", SchemeKind.ExpES),
                                       ("case2", SchemeKind.TES)])
def test_yielded_arrays_are_never_written_again(case, kind):
    # a caller may keep every yielded array (the exponential-moment integral
    # keeps the previous state, cmd_simulate and tests keep whole paths), so
    # the engine must not write into one after yielding it; p = 11 crosses
    # tile boundaries
    snapshots = []
    kept = []
    for x, div in simulate_paths(CASES[case], kind, 11, make_stream(4, 0, 11, 300)):
        kept.append((x, div))
        snapshots.append((x.copy(), div.copy()))
    assert len(kept) == (1 << 11) + 1
    for (x, div), (sx, sdiv) in zip(kept, snapshots):
        assert np.array_equal(x, sx)
        assert np.array_equal(div, sdiv)
    for (x, div), (nx, ndiv) in zip(kept, kept[1:]):
        assert not np.shares_memory(x, nx)
        assert not np.shares_memory(div, ndiv)
