"""Oracles for the lean long-path engine.

Each fast path must give the values of the plain form it replaces, bit for
bit: per-row generators of a stream that resumes over several calls against
one numpy generator per trajectory; the drift and every kernel against
their textbook formulas; the all-alive step test against the per-column
engine in test_engine_tiles, also when a path first diverges late.
"""

import math

import numpy as np
import pytest

from expsde import paths
from expsde.cli import CASES
from expsde.models import GeneralDriftModel, PrototypeModel, drift_eval
from expsde.montecarlo import SEGMENT_STEPS, simulate_paths
from expsde.paths import make_stream
from expsde.schemes import SchemeKind, step_values
from test_engine_tiles import column_oracle


def solo_draws(seed, trajectory, level, n):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trajectory, level))
    return np.random.Generator(np.random.Philox(ss)).standard_normal(n)


def same_bits(got, want):
    """Equal bit for bit, NaN matching any NaN."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


# ------------------------------------------------------ per-row generators

def test_resumed_rows_equal_one_generator_per_trajectory(monkeypatch):
    keyed = []

    class CountingKey(paths._RowKey):
        __slots__ = ()

        def __init__(self, key):
            keyed.append(key)
            super().__init__(key)

    monkeypatch.setattr(paths, "_RowKey", CountingKey)
    # nine rows across a key-block boundary at level 12, drawn in uneven
    # splits of its 4096 draws and then past them (a replay from the keys),
    # interleaved with a second stream that resumes too
    deep = make_stream(11, paths.KEY_BLOCK - 4, 12, 9)
    other = make_stream(3, 40, 6, 2)
    deep_parts, other_parts = [], []
    for width, other_width in [(1, 5), (1023, 0), (700, 17), (2000, 30),
                               (372, 12), (10, 1)]:
        deep_parts.append(deep.standard_normals(width))
        other_parts.append(other.standard_normals(other_width))
    # one generator per row, built once, for each stream
    assert len(keyed) == 9 + 2
    got = np.concatenate(deep_parts, axis=1)
    assert deep.counter == got.shape[1] == 4106
    for i in range(9):
        assert np.array_equal(got[i], solo_draws(11, paths.KEY_BLOCK - 4 + i, 12, 4106)), i
    got = np.concatenate(other_parts, axis=1)
    for i in range(2):
        assert np.array_equal(got[i], solo_draws(3, 40 + i, 6, 65)), i
    # a stream that starts mid-path builds its rows and replays the counter
    resumed = paths.GaussianStream(11, 7, 12, count=3, counter=1500)
    got = np.concatenate([resumed.standard_normals(w) for w in (24, 1000)], axis=1)
    for i in range(3):
        assert np.array_equal(got[i], solo_draws(11, 7 + i, 12, 2524)[1500:]), i
    # a stream drawn in one call keeps the shared re-keyed generator
    keyed.clear()
    one = make_stream(11, 0, 5, 4).standard_normals(32)
    assert keyed == []
    assert np.array_equal(one[3], solo_draws(11, 3, 5, 32))


# ------------------------------------------------- drift and kernel oracles

def textbook_drift(model, x):
    return model.b0 + model.b1 * x - model.b2 * np.power(x, 2.0 * model.alpha - 1.0)


def textbook_step(kind, model, x, dt, dw):
    """Each update rule as written in the schemes module docstring, with the
    polynomial drift in full."""
    a, s, b0 = model.alpha, model.sigma, model.b0
    b = textbook_drift(model, x)
    xa1 = np.power(x, a - 1.0)
    if kind is SchemeKind.ExpES:
        return b0 * dt + x * np.exp(s * xa1 * dw
                                    + ((b - b0) / x - 0.5 * s * s * xa1 * xa1) * dt)
    if kind is SchemeKind.ExplicitExpEuler:
        return x * np.exp(s * xa1 * dw + (b / x - 0.5 * s * s * xa1 * xa1) * dt)
    if kind in (SchemeKind.SES, SchemeKind.SMS, SchemeKind.SMSHalf):
        inner = x + b * dt + s * np.power(x, a) * dw
        if kind is not SchemeKind.SES:
            factor = 1.0 if kind is SchemeKind.SMS else 0.5
            inner = inner + (a * s * s) * factor * np.power(x, 2.0 * a - 1.0) * (dw * dw - dt)
        return np.abs(inner)
    if kind is SchemeKind.TES:
        return x + b * dt / (1.0 + np.abs(b) * dt) + s * np.power(x, a) * dw
    inc = b * dt + s * np.power(x, a) * dw
    keep = np.abs(x) < math.exp(math.sqrt(abs(math.log(dt))))
    return x + np.where(keep, inc / (1.0 + inc * inc), 0.0)


MODELS = {
    "b0>0": PrototypeModel(b0=0.7, b1=0.0, b2=2.0, sigma=0.3, alpha=1.5),
    "b0,b1>0": CASES["case4"],
    "b1>0": PrototypeModel(b0=0.0, b1=1.5, b2=0.5, sigma=0.2, alpha=2.0),
    "zero": CASES["case1"],
    "zero, alpha 3": CASES["case7"],
    "zero, alpha 1.125": CASES["case5"],
}
# zero, negative, subnormal and 1e12 states, and some ordinary ones
STATES = np.array([0.0, -0.0, -1e12, -3.5, -1.0, -5e-324, 5e-324, 2.2e-310,
                   1e-8, 0.5, 1.0, 2.0, 1e6, 1e12])
DWS = np.tile([0.3, -0.7, 0.0, 1.9, -2.5, 0.01, -0.2], 2)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_drift_and_kernels_equal_textbook_formulas(name):
    model = MODELS[name]
    with np.errstate(all="ignore"):
        assert same_bits(drift_eval(model, STATES), textbook_drift(model, STATES))
        for dt in (2.0 ** -6, 0.5):
            for kind in SchemeKind:
                got = step_values(kind, model, STATES, dt, DWS)
                assert same_bits(got, textbook_step(kind, model, STATES, dt, DWS)), kind


def test_identity_drift_is_never_written():
    # a general drift may return its argument itself; no kernel may write
    # into it (nor into the increments)
    model = GeneralDriftModel(drift=lambda x: x, b_at_zero=0.0, sigma=0.3,
                              alpha=1.5)
    x = np.array([0.25, 1.0, 3.0, 1e3])
    dw = np.array([0.1, -0.4, 0.0, 1.2])
    saved_x, saved_dw = x.copy(), dw.copy()
    for kind in SchemeKind:
        out = step_values(kind, model, x, 0.125, dw)
        assert np.array_equal(x, saved_x) and np.array_equal(dw, saved_dw), kind
        assert not np.shares_memory(out, x) and not np.shares_memory(out, dw), kind


# --------------------------------------------- all-alive test against oracle

class ArrayStream:
    """A stream whose draws are the columns of a fixed (count, steps) array."""

    def __init__(self, draws):
        self.draws = draws
        self.count = draws.shape[0]
        self.counter = 0

    def standard_normals(self, n):
        block = self.draws[:, self.counter:self.counter + n].copy()
        self.counter += n
        return block


def assert_matches_oracle(model, kind, p, make):
    """simulate_paths and column_oracle on equal streams from make();
    returns the oracle's pairs."""
    want = list(column_oracle(model, kind, p, make()))
    got = list(simulate_paths(model, kind, p, make()))
    assert len(got) == len(want)
    for (gx, gdiv), (wx, wdiv) in zip(got, want):
        assert same_bits(gx, wx)
        assert np.array_equal(gdiv, wdiv)
    return want


def first_flagged(pairs):
    """Index of the first grid time at which some path is flagged."""
    return next(k for k, (_, div) in enumerate(pairs) if div.any())


@pytest.mark.parametrize("poison", [1e200, -1e200, math.inf, math.nan])
@pytest.mark.parametrize("kind", SchemeKind, ids=lambda k: k.value)
def test_late_first_divergence_matches_column_oracle(kind, poison):
    # every path of case1 stays alive at p = 11 until row 5 draws the
    # poison at step 1500, past the first segment: the engine runs the
    # all-alive test for 1500 steps, then the mask path to the end.  The
    # poisoned state may be over the cap on either side, infinite, NaN or
    # (a tamed or underflowing update) still alive
    model, p, rows, late = CASES["case1"], 11, 40, 1500
    assert late > SEGMENT_STEPS
    draws = make_stream(8, 0, p, rows).standard_normals(1 << p)
    draws[5, late] = poison
    want = assert_matches_oracle(model, kind, p, lambda: ArrayStream(draws))
    assert len(want) == (1 << p) + 1
    flagged = want[-1][1]
    assert flagged.any() or not math.isnan(poison)
    if flagged.any():
        assert first_flagged(want) > late
        assert flagged.tolist() == [i == 5 for i in range(rows)]


def test_nan_first_divergence_matches_column_oracle():
    # tes on case2 at p = 3: the first bad states are NaN (a fractional
    # power of a negative state), not states over the cap
    model, kind, p = CASES["case2"], SchemeKind.TES, 3
    want = assert_matches_oracle(model, kind, p, lambda: make_stream(2, 0, p, 64))
    k = first_flagged(want)
    dt = model.horizon / (1 << p)
    dw = make_stream(2, 0, p, 64).standard_normals(1 << p)[:, k - 1] * math.sqrt(dt)
    with np.errstate(all="ignore"):
        cand = step_values(kind, model, want[k - 1][0], dt, dw)
    assert np.isnan(cand[want[k][1]]).all()
