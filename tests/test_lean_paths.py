"""Oracles for the lean long-path engine.

Each fast path must give the values of the plain form it replaces, bit for
bit: a stream drawn over many calls against the same stream drawn in one;
the drift and every kernel against their textbook formulas, the closed
forms from the one power x^(alpha-1) that the schemes module docstring
gives; the all-alive step test against the per-column engine in
test_engine_tiles, also when a path first diverges late.  The closed forms
in turn agree with the power forms of numerics version 2, a power per
term, to a few ulps per step.
"""

import math

import numpy as np
import pytest

from expsde.cli import CASES
from expsde.models import GeneralDriftModel, PrototypeModel, drift_eval
from expsde.montecarlo import TILE_STEPS, simulate_paths
from expsde.paths import KEY_BLOCK, LANES, GaussianStream, make_stream
from expsde.schemes import SchemeKind, step_values
from conftest import STEP_AGREEMENT
from test_engine_tiles import column_oracle


def same_bits(got, want):
    """Equal bit for bit, NaN matching any NaN."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


# ------------------------------------------------ draws split over calls

def test_split_calls_equal_one_call_across_groups():
    # 200 rows from mid-group across a key-block boundary at level 12 touch
    # five lane groups; uneven splits of 4106 draws, interleaved with a
    # second stream that is split too, give the draws of one call
    start = KEY_BLOCK * LANES - 70
    deep = make_stream(11, start, 12, 200)
    other = make_stream(3, 40, 6, 2)
    deep_parts, other_parts = [], []
    for width, other_width in [(1, 5), (1023, 0), (700, 17), (2000, 30),
                               (372, 12), (10, 1)]:
        deep_parts.append(deep.standard_normals(width))
        other_parts.append(other.standard_normals(other_width))
    got = np.concatenate(deep_parts, axis=1)
    assert deep.counter == got.shape[1] == 4106
    assert np.array_equal(got, make_stream(11, start, 12, 200).standard_normals(4106))
    got = np.concatenate(other_parts, axis=1)
    assert np.array_equal(got, make_stream(3, 40, 6, 2).standard_normals(65))
    # a stream that starts mid-path skips the counter in every group
    resumed = GaussianStream(11, start + 3, 12, count=130, counter=1500)
    got = np.concatenate([resumed.standard_normals(w) for w in (24, 1000)], axis=1)
    assert np.array_equal(got, make_stream(11, start + 3, 12, 130)
                          .standard_normals(2524)[:, 1500:])


# ------------------------------------------------- drift and kernel oracles

def textbook_drift(model, x):
    return model.b0 + model.b1 * x - model.b2 * np.power(x, 2.0 * model.alpha - 1.0)


def power_form_step(kind, model, x, dt, dw):
    """Each update rule with the polynomial drift in full and a power per
    term: the kernels of numerics version 2."""
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


def closed_slope(model, xa1, ito=0.0):
    """(b(x) - b0)/x - ito*xa1^2 = b1 - (b2 + ito)*xa1^2, the b1 term
    skipped when it is 0."""
    v = -(model.b2 + ito) * (xa1 * xa1)
    return model.b1 + v if model.b1 != 0.0 else v


def closed_drift(model, x, xa1):
    """b(x) = b0 + x*(b1 - b2*xa1^2), the b0 term skipped when it is 0."""
    v = x * closed_slope(model, xa1)
    return model.b0 + v if model.b0 != 0.0 else v


def closed_form_step(kind, model, x, dt, dw):
    """Each update rule as the schemes module docstring writes it, from the
    one power xa1 = x^(alpha-1): x^alpha is x*xa1 and x^(2alpha-1) is
    x^alpha*xa1."""
    a, s, b0 = model.alpha, model.sigma, model.b0
    xa1 = np.power(x, a - 1.0)
    if kind in (SchemeKind.ExpES, SchemeKind.ExplicitExpEuler):
        c = closed_slope(model, xa1, 0.5 * s * s)
        if kind is SchemeKind.ExpES:
            return b0 * dt + x * np.exp(s * xa1 * dw + c * dt)
        if b0 != 0.0:
            c = c + b0 / x
        return x * np.exp(s * xa1 * dw + c * dt)
    b = closed_drift(model, x, xa1)
    xa = x * xa1
    if kind in (SchemeKind.SES, SchemeKind.SMS, SchemeKind.SMSHalf):
        inner = x + b * dt + s * xa * dw
        if kind is not SchemeKind.SES:
            factor = 1.0 if kind is SchemeKind.SMS else 0.5
            inner = inner + (a * s * s) * factor * (xa * xa1) * (dw * dw - dt)
        return np.abs(inner)
    if kind is SchemeKind.TES:
        return x + b * dt / (1.0 + np.abs(b) * dt) + s * xa * dw
    inc = b * dt + s * xa * dw
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
EXPONENTIAL = (SchemeKind.ExpES, SchemeKind.ExplicitExpEuler)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_drift_and_kernels_equal_textbook_formulas(name):
    model = MODELS[name]
    with np.errstate(all="ignore"):
        xa1 = np.power(STATES, model.alpha - 1.0)
        assert same_bits(drift_eval(model, STATES), textbook_drift(model, STATES))
        assert same_bits(drift_eval(model, STATES, xa1), closed_drift(model, STATES, xa1))
        for dt in (2.0 ** -6, 0.5):
            for kind in SchemeKind:
                got = step_values(kind, model, STATES, dt, DWS)
                assert same_bits(got, closed_form_step(kind, model, STATES, dt, DWS)), kind


@pytest.mark.parametrize("name", sorted(MODELS))
def test_closed_forms_agree_with_power_forms(name):
    # the closed forms move each step by at most STEP_AGREEMENT relative,
    # and change no state's finiteness but the zero states of exp-es, and
    # of explicit-exp-euler when b0 = 0 (test_zero_state_stays_zero_and_alive)
    model = MODELS[name]
    zero = STATES == 0.0
    with np.errstate(all="ignore"):
        for dt in (2.0 ** -6, 0.5):
            for kind in SchemeKind:
                got = step_values(kind, model, STATES, dt, DWS)
                want = power_form_step(kind, model, STATES, dt, DWS)
                finite = np.isfinite(got)
                if kind is SchemeKind.ExpES or (kind in EXPONENTIAL and model.b0 == 0.0):
                    # at +0 the power form's (b - b0)/x or b/x is 0/0
                    assert np.isnan(want[0]) and finite[zero].all(), kind
                    finite, want_finite = finite[~zero], np.isfinite(want[~zero])
                    got, want = got[~zero], want[~zero]
                else:
                    want_finite = np.isfinite(want)
                assert np.array_equal(finite, want_finite), kind
                # relative, or below the normal range as far as it reaches
                scale = np.maximum(np.abs(want[finite]), np.finfo(np.float64).tiny)
                assert (np.abs(got[finite] - want[finite])
                        <= STEP_AGREEMENT * scale).all(), kind


@pytest.mark.parametrize("kind", EXPONENTIAL, ids=lambda k: k.value)
def test_zero_state_stays_zero_and_alive(kind):
    # with b0 = 0 the state 0 is the SDE's absorbing state: b(0) = 0 and
    # sigma*0^alpha = 0.  The closed form's ratio is b1 at 0, so the step
    # keeps it, where (b(0) - b(0))/0 made NaN.  Here one huge negative
    # increment underflows every path to exactly 0 at step 3
    for name in ("b1>0", "zero", "zero, alpha 3", "zero, alpha 1.125"):
        model = MODELS[name]
        zeros = np.zeros(len(DWS))
        for dt in (2.0 ** -6, 0.5):
            out = step_values(kind, model, zeros, dt, DWS)
            assert same_bits(out, zeros), (name, dt)
        draws = np.full((3, 8), 0.5)
        draws[:, 2] = -1e200
        pairs = list(simulate_paths(model, kind, 3, ArrayStream(draws)))
        for k, (x, div) in enumerate(pairs):
            assert not div.any(), (name, k)
            assert (x > 0.0).all() if k < 3 else (x == 0.0).all(), (name, k)
    # with b0 > 0 exp-es steps from 0 to b0*dt, as from any state near it
    model = MODELS["b0>0"]
    out = step_values(kind, model, np.zeros(2), 0.25, np.array([0.3, -0.3]))
    if kind is SchemeKind.ExpES:
        assert out.tolist() == [model.b0 * 0.25] * 2
    else:
        assert np.isnan(out).all()


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
    # poison at step 1500, many tiles in: the engine runs the
    # all-alive test for 1500 steps, then the mask path to the end.  The
    # poisoned state may be over the cap on either side, infinite, NaN or
    # (a tamed or underflowing update) still alive
    model, p, rows, late = CASES["case1"], 11, 40, 1500
    assert late > TILE_STEPS
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
