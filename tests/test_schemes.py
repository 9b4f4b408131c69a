"""Step-formula oracles and scheme invariants.

The exact expected values below were assembled by hand from the update
formulas before implementation (exponents and tamed fractions evaluated on
paper); math.exp appears only to carry the hand-built exponent to full
precision.
"""

import math

import numpy as np
import pytest

from expsde import schemes
from expsde.models import GeneralDriftModel, PrototypeModel
from expsde.montecarlo import simulate_paths
from expsde.schemes import DIVERGENCE_CAP, SchemeKind, alive, step, step_values
from expsde.paths import make_stream
from expsde.reference import NUMERICS_VERSION
from conftest import ZeroStream, path_terminal

CASE1 = PrototypeModel(b2=2.0, sigma=0.1, alpha=1.5)
CASE2 = PrototypeModel(b2=3.0, sigma=1.0, alpha=1.25)
CASE4 = PrototypeModel(b0=1.0, b1=1.0, b2=0.4, sigma=0.1, alpha=3.0)


class FixedStream:
    """One-row stream replaying a fixed list of standard normals."""

    count = 1

    def __init__(self, values):
        self.values = list(values)
        self.counter = 0

    def standard_normals(self, n):
        out = np.array(self.values[self.counter:self.counter + n], dtype=np.float64)
        if len(out) != n:
            raise RuntimeError("stream exhausted")
        self.counter += n
        return out[None, :]


ES, EXP = SchemeKind.ExpES, SchemeKind.ExplicitExpEuler
SES, SMS = SchemeKind.SES, SchemeKind.SMS
TES, STES = SchemeKind.TES, SchemeKind.STES


def test_exp_es_case1_unit_step():
    # exponent: (b(1) - 0)/1 * dt + 0 - sigma^2/2 * 1 = -2 - 0.005
    out = step(ES, CASE1, 1.0, 1.0, 0.0)
    assert out == pytest.approx(math.exp(-2.005), rel=1e-12)
    assert alive(out)
    # one step of dt = 1 spans the unit horizon: the p = 0 path is the start
    # plus this one state
    states = [x[0] for x, _ in simulate_paths(CASE1, ES, 0, ZeroStream())]
    assert states == [1.0, out]


def test_exp_es_case4_half_step():
    # b(1) = 1.6, ratio (1.6-1)/1 = 0.6, Ito term 0.005, exponent 0.595*0.5
    out = step(ES, CASE4, 1.0, 0.5, 0.0)
    assert out == pytest.approx(0.5 + math.exp(0.2975), rel=1e-12)


def test_exp_es_continuity_tiny_dt():
    for model, x in [(CASE1, 0.7), (CASE4, 1.0)]:
        dt = 1e-15
        out = step(ES, model, x, dt, 0.0)
        assert abs(out - (x + model.b0 * dt)) <= 1e-12 * x


def test_explicit_case1_quarter_step():
    # exponent: 0.1*0.1 + (-2 - 0.005)*0.25 = 0.01 - 0.50125
    out = step(EXP, CASE1, 1.0, 0.25, 0.1)
    assert out == pytest.approx(math.exp(-0.49125), rel=1e-12)


def test_exp_schemes_coincide_when_b0_zero():
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = float(rng.uniform(0.05, 3.0))
        dt = float(rng.uniform(1e-4, 1.0))
        dw = float(rng.normal(0.0, math.sqrt(dt)))
        a = step(ES, CASE1, x, dt, dw)
        b = step(EXP, CASE1, x, dt, dw)
        assert a == b  # bitwise


def test_ses_case1_quarter_step():
    out = step(SES, CASE1, 1.0, 0.25, 0.0)
    assert out == pytest.approx(0.5, rel=1e-12)


def test_ses_reflects_negative_inner():
    # inner = 1 - 0.5 + 0.1*(-8) = -0.3
    out = step(SES, CASE1, 1.0, 0.25, -8.0)
    assert out == pytest.approx(0.3, rel=1e-12)


def test_ses_zero_inner_fixed_point():
    out = step(SES, CASE1, 1.0, 0.25, -5.0)
    assert out == 0.0


def test_ses_sms_nonnegative_property():
    rng = np.random.default_rng(4)
    for _ in range(300):
        x = float(rng.uniform(-2.0, 4.0))
        dt = float(rng.uniform(1e-3, 1.0))
        dw = float(rng.normal(0.0, math.sqrt(dt)))
        for kind in (SES, SMS):
            out = step(kind, CASE1, x, dt, dw)
            assert not alive(out) or out >= 0.0


def test_sms_equals_ses_when_dw_squared_is_dt():
    a = step(SMS, CASE1, 1.0, 0.25, 0.5)
    b = step(SES, CASE1, 1.0, 0.25, 0.5)
    assert a == b


def test_sms_verbatim_correction():
    # correction alpha*sigma^2*(0 - 0.25) = 1.5*0.01*(-0.25) = -0.00375
    out = step(SMS, CASE1, 1.0, 0.25, 0.0)
    assert out == pytest.approx(0.49625, rel=1e-12)


def test_sms_half_variant():
    out = step(SchemeKind.SMSHalf, CASE1, 1.0, 0.25, 0.0)
    assert out == pytest.approx(0.498125, rel=1e-12)


def test_tes_zero_is_fixed_point():
    out = step(TES, CASE1, 0.0, 0.5, 1.3)
    assert out == 0.0


def test_tes_case1_half_step():
    # 1 + (-2*0.5)/(1 + 2*0.5) = 1 - 0.5
    out = step(TES, CASE1, 1.0, 0.5, 0.0)
    assert out == pytest.approx(0.5, rel=1e-12)


def test_tes_tamed_drift_bounded():
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = float(rng.uniform(0.0, 50.0))
        dt = float(rng.uniform(1e-4, 1.0))
        m = CASE2
        d = m.b0 + m.b1 * x - m.b2 * x ** (2 * m.alpha - 1)
        assert abs(d * dt / (1.0 + abs(d) * dt)) < 1.0


def test_stes_case1_quarter_step():
    # inc = -0.5, threshold exp(sqrt(ln 4)) > 1, update -0.5/1.25
    out = step(STES, CASE1, 1.0, 0.25, 0.0)
    assert out == pytest.approx(0.6, rel=1e-12)


def test_stes_indicator_freezes_large_state():
    # threshold at dt=0.25 is exp(sqrt(ln 4)) ~ 3.2465
    out = step(STES, CASE1, 4.0, 0.25, 1.7)
    assert out == 4.0


def test_stes_displacement_bounded_by_half():
    rng = np.random.default_rng(6)
    for _ in range(500):
        x = float(rng.uniform(-3.0, 3.0))
        dt = float(rng.uniform(1e-4, 0.99))
        dw = float(rng.normal(0.0, math.sqrt(dt)))
        out = step(STES, CASE2, x, dt, dw)
        if alive(out):
            assert abs(out - x) <= 0.5 + 1e-15


def test_exp_es_positivity_quick():
    rng = np.random.default_rng(8)
    for model in (CASE1, CASE2, CASE4):
        for _ in range(200):
            x = float(rng.uniform(1e-3, 3.0))
            dt = float(rng.uniform(1e-4, 1.0))
            dw = float(rng.normal(0.0, math.sqrt(dt)))
            out = step(ES, model, x, dt, dw)
            if alive(out):
                assert out > model.b0 * dt


def test_step_rejects_diverged_state():
    for kind in SchemeKind:
        for bad in (math.nan, math.inf, -2.0 * DIVERGENCE_CAP):
            with pytest.raises(ValueError, match="diverged"):
                step(kind, CASE1, bad, 0.1, 0.0)


def test_exp_step_rejects_nonpositive_state():
    with pytest.raises(ValueError):
        step(ES, CASE1, 0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        step(EXP, CASE1, -1.0, 0.1, 0.0)
    # the other schemes accept a negative state: |-1 + b(-1)*0.1| = 0.96
    assert step(SES, CASE4, -1.0, 0.1, 0.0) == pytest.approx(0.96, rel=1e-12)


def test_step_input_validation():
    for kind in SchemeKind:
        for dt in (0.0, -0.25, math.nan):
            with pytest.raises(ValueError, match="dt must be positive"):
                step(kind, CASE1, 1.0, dt, 0.0)
        for dw in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="dw must be finite"):
                step(kind, CASE1, 1.0, 0.1, dw)


def test_scheme_kind_ids():
    for kind in SchemeKind:
        assert SchemeKind.from_id(kind.value) is kind
    assert SchemeKind.from_id(" Exp-ES ") is SchemeKind.ExpES
    with pytest.raises(ValueError):
        SchemeKind.from_id("heun")


def test_simulate_single_step_composition():
    # p=0: one step over the whole horizon reproduces the scalar step
    stream = make_stream(11, 0, 0)
    z = make_stream(11, 0, 0).standard_normals(1)[0, 0]
    term, div = path_terminal(CASE1, ES, 0, stream)
    ref = step(ES, CASE1, CASE1.x0, 1.0, z * 1.0)
    assert term == ref
    assert div == (not alive(ref))


def test_simulate_terminal_positive():
    term, div = path_terminal(CASE1, ES, 2, make_stream(1, 0, 2))
    assert not div
    assert term > 0.0


def test_simulate_consumes_exactly_n_draws():
    stream = make_stream(13, 2, 3)
    path_terminal(CASE1, ES, 3, stream)
    assert stream.counter == 8


def test_simulate_divergence_freezes():
    # Case 2 TES: first step driven hard negative, second step evaluates a
    # fractional power of the negative state and produces NaN; the path
    # keeps its last good (negative) state and is flagged from then on
    stream = FixedStream([-3.0, 0.5])
    states = list(simulate_paths(CASE2, TES, 1, stream))
    first = step(TES, CASE2, 1.0, 0.5, -3.0 * math.sqrt(0.5))
    assert first < 0.0
    assert math.isnan(step_values(TES, CASE2, np.array([first]), 0.5,
                                  np.array([0.5 * math.sqrt(0.5)]))[0])
    assert [bool(d[0]) for _, d in states] == [False, False, True]
    term, div = path_terminal(CASE2, TES, 1, FixedStream([-3.0, 0.5]))
    assert div
    assert term == first
    assert stream.counter == 2


def test_zero_noise_terminal_near_ode():
    # with dW = 0 the exponential scheme integrates x' = -(2 + sigma^2/2) x^2,
    # a perturbation of x' = -2 x^2 whose exact solution is 1/(1+2t)
    term, div = path_terminal(CASE1, ES, 8, ZeroStream())
    assert not div
    assert abs(term - 1.0 / 3.0) < 2.0 * 2.0 ** -8


def _power_oracle(kind, model, x, dt, dw):
    """step_values as it was before alpha = 1.5 took np.sqrt: the scheme's
    kernel fed np.power(x, alpha - 1)."""
    with np.errstate(all="ignore"):
        return schemes._KERNELS[kind](model, x, np.power(x, model.alpha - 1.0),
                                      dt, dw)


SQRT_MODELS = [
    CASE1,
    PrototypeModel(b0=0.5, b1=1.0, b2=2.0, sigma=0.5, alpha=1.5),
    GeneralDriftModel(drift=lambda x: 0.5 - 2.0 * x * x, b_at_zero=0.5,
                      sigma=0.5, alpha=1.5, validate=False),
]


@pytest.mark.parametrize("model", SQRT_MODELS, ids=["case1", "b0-b1-b2", "drift"])
@pytest.mark.parametrize("dt", [0.5, 2.0 ** -10])
@pytest.mark.parametrize("kind", SchemeKind, ids=lambda k: k.value)
def test_sqrt_power_matches_np_power_oracle(kind, dt, model):
    # alpha = 1.5 takes x^0.5 as np.sqrt: on every finite nonnegative state
    # the step is np.power's bit for bit, and on the rest (-0, negative,
    # infinite, NaN) it gives the same alive verdict
    rng = np.random.default_rng(15)
    cap = DIVERGENCE_CAP
    states = np.concatenate([
        np.exp2(rng.uniform(-1074.0, 41.0, 2048)),  # subnormal to beyond the cap
        [0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1.0, 0.9 * cap,
         np.nextafter(cap, 0.0), cap, np.nextafter(cap, math.inf)]])
    odd = np.array([-0.0, -5e-324, -1e-3, -1.0, -cap, -math.inf, math.inf,
                    math.nan, -math.nan])
    for xs in (states, odd):
        dws = rng.normal(0.0, math.sqrt(dt), len(xs))
        got = step_values(kind, model, xs, dt, dws)
        want = _power_oracle(kind, model, xs, dt, dws)
        assert np.array_equal(alive(got), alive(want))
        if xs is states:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_step_values_vector_matches_scalar():
    rng = np.random.default_rng(9)
    xs = rng.uniform(0.1, 2.0, size=32)
    dws = rng.normal(0.0, 0.3, size=32)
    for kind in SchemeKind:
        vec = step_values(kind, CASE2, xs, 0.125, dws)
        for i in range(32):
            one = step_values(kind, CASE2, xs[i:i + 1], 0.125, dws[i:i + 1])
            assert one[0] == vec[i]


# terminals of trajectories 0..7 (seed 35, p = 2) under every scheme, for a
# drift with all three terms and a fractional power: what numerics version
# 4 simulates.  tes's trajectory 0 diverges, its terminal is its last good
# state
FROZEN_MODEL = PrototypeModel(b0=0.5, b1=1.0, b2=2.0, sigma=0.5, alpha=1.5)
FROZEN_SEED = 35
FROZEN_TERMINALS = {
    "exp-es": [
        0.7490589351354434, 1.4123887386813454, 1.0335095498939109,
        0.5158402662085814, 0.6713822422566709, 1.029151835878642,
        1.267026674487528, 0.6532187230475646,
    ],
    "explicit-exp-euler": [
        0.7072240086454655, 1.4620021702507404, 1.072628752209767,
        0.474920194881944, 0.6408491174461289, 1.0144964913509062,
        1.2666418569228193, 0.6001520829206392,
    ],
    "ses": [
        0.4796181293467303, 1.4093423670741456, 0.9390007964700924,
        0.28202390520773146, 0.6315332285486801, 1.036499035369601,
        1.2407725061363006, 0.5790294741405264,
    ],
    "sms": [
        1.3086832199127634, 1.6043770441962892, 1.1197743850474777,
        0.6189479670428348, 0.6273356472330098, 0.9714123631043573,
        0.9794661868567226, 0.5798485241957395,
    ],
    "sms-half": [
        0.4646068729827616, 1.5226938982844258, 1.0287028020384885,
        0.5305956246330706, 0.6353386386210389, 1.0053333636346804,
        1.170379191997614, 0.5869679908612122,
    ],
    "tes": [
        -0.10773561395712261, 1.423752343683233, 0.9115151334173528,
        0.2645226520561385, 0.6202168020061634, 1.0674426181874084,
        1.4911160633502951, 0.5753622378893535,
    ],
    "stes": [
        1.0940116074900081, 1.3257878633110551, 0.9072403745400793,
        0.5145219702643429, 0.6580422542741786, 1.0419920045164428,
        1.2884607521671274, 0.6043838765376683,
    ],
}


@pytest.mark.parametrize("kind", SchemeKind, ids=lambda k: k.value)
def test_frozen_terminals_guard_the_numerics_version(kind):
    # a kernel change that moves any of these must bump NUMERICS_VERSION,
    # so that no cached reference of the old kernels is served
    assert NUMERICS_VERSION == 4
    stream = make_stream(FROZEN_SEED, 0, 2, 8)
    for x, div in simulate_paths(FROZEN_MODEL, kind, 2, stream):
        pass
    assert x.tolist() == FROZEN_TERMINALS[kind.value]
    assert div.tolist() == [kind is SchemeKind.TES and i == 0 for i in range(8)]


def test_divergence_cap_flags_huge_values():
    # finite but beyond the cap: drift kicks 1e11 to ~5e16 in one step
    out = step(SES, CASE2, 1e11, 0.5, 0.0)
    assert not alive(out)
    assert math.isfinite(out)
    assert abs(out) > DIVERGENCE_CAP


def test_alive_truth_table():
    # one comparison decides: NaN of either sign and both infinities fail
    # it, the cap itself passes, and no floating-point flag is raised
    above = np.nextafter(DIVERGENCE_CAP, math.inf)
    table = [(math.nan, False), (-math.nan, False),
             (math.inf, False), (-math.inf, False),
             (DIVERGENCE_CAP, True), (-DIVERGENCE_CAP, True),
             (above, False), (-above, False),
             (-0.0, True), (5e-324, True)]
    values = np.array([v for v, _ in table])
    want = np.array([ok for _, ok in table])
    with np.errstate(all="raise"):
        assert np.array_equal(alive(values), want)
        for value, ok in table:
            assert bool(alive(value)) is ok
