"""Model construction, drift evaluation, and hypothesis-check oracles.

Expected kappa values are frozen from independent hand evaluation of the
order-one constraint (budget = 3*sigma^2*alpha plus the max-bracket term),
done on paper before this module was written.
"""

import math
import warnings

import numpy as np
import pytest

from expsde.models import (
    GeneralDriftModel,
    GrowthMetadata,
    InsufficientMetadataError,
    PrototypeModel,
    check_hypotheses,
    drift_eval,
    kappa,
    max_moment_order,
)

# catalog parameter tuples (b0, b1, b2, sigma, alpha)
CASES = {
    1: (0.0, 0.0, 2.0, 0.1, 1.5),
    2: (0.0, 0.0, 3.0, 1.0, 1.25),
    3: (0.0, 0.0, 1.0, 1.0, 1.5),
    4: (1.0, 1.0, 0.4, 0.1, 3.0),
    5: (0.0, 0.0, 10.0, 0.5, 1.125),
    6: (0.0, 0.0, 0.01, 0.1, 1.25),
    7: (0.0, 0.0, 0.4, 0.1, 3.0),
}


def make_case(i, **kw):
    b0, b1, b2, sigma, alpha = CASES[i]
    return PrototypeModel(b0=b0, b1=b1, b2=b2, sigma=sigma, alpha=alpha, **kw)


def test_drift_case1_at_one():
    # b(1) = -2 * 1^2
    assert drift_eval(make_case(1), 1.0) == -2.0


def test_drift_at_zero_returns_b0():
    for i in CASES:
        m = make_case(i)
        assert drift_eval(m, 0.0) == m.b0


def test_drift_case4_at_one():
    # 1 + 1 - 0.4 * 1^5
    assert drift_eval(make_case(4), 1.0) == pytest.approx(1.6, rel=1e-15)


def test_drift_vectorized_matches_scalar():
    m = make_case(2)
    xs = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    vec = drift_eval(m, xs)
    for x, v in zip(xs, vec):
        assert drift_eval(m, float(x)) == v


def test_drift_negative_fractional_power_is_nan():
    m = make_case(2)  # 2*alpha - 1 = 1.5, fractional
    assert math.isnan(drift_eval(m, -0.5))


def test_drift_negative_integer_power_stays_real():
    m = make_case(1)  # 2*alpha - 1 = 2
    assert drift_eval(m, -0.5) == pytest.approx(-2.0 * 0.25, rel=1e-15)


# hand-derived slack values, see module docstring
KAPPA_EXPECTED = {
    1: 1.926875,
    2: -3.3541666666666665,
    3: -6.3125,
    4: -4.19,
    5: 8.5234375,
    6: -0.05354166666666666,
    7: 0.225,
}


@pytest.mark.parametrize("i", sorted(KAPPA_EXPECTED))
def test_kappa_catalog_values(i):
    assert kappa(make_case(i)) == pytest.approx(KAPPA_EXPECTED[i], rel=1e-12, abs=1e-14)


def test_kappa_second_code_path():
    # independent re-evaluation for b0 = 0 models: numpy max over the three
    # bracket candidates, different arithmetic grouping
    rng = np.random.default_rng(7)
    for _ in range(200):
        b2 = float(rng.uniform(0.0, 12.0))
        sigma = float(rng.uniform(0.05, 2.0))
        alpha = float(rng.uniform(1.01, 4.0))
        m = PrototypeModel(b2=b2, sigma=sigma, alpha=alpha)
        cands = np.array([
            12.0 * alpha - 19.0,
            8.0 * alpha - 10.0,
            5.0 * alpha ** 2 / (2.0 * alpha - 1.0),
        ])
        expect = b2 - sigma ** 2 * (3.0 * alpha + np.max(cands) / 2.0)
        assert kappa(m) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_kappa_monotone_in_b2_and_sigma():
    for alpha in (1.2, 1.5, 2.0, 3.0):
        ks = [kappa(PrototypeModel(b2=b2, sigma=0.3, alpha=alpha)) for b2 in np.linspace(0.0, 8.0, 9)]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        ks = [kappa(PrototypeModel(b2=2.0, sigma=s, alpha=alpha)) for s in np.linspace(0.05, 2.0, 9)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))
    # b0 > 0 regime as well
    ks = [kappa(PrototypeModel(b0=1.0, b2=b2, sigma=0.3, alpha=2.0)) for b2 in np.linspace(0.0, 8.0, 9)]
    assert all(a < b for a, b in zip(ks, ks[1:]))


def test_check_case1_h5_holds():
    r = check_hypotheses(make_case(1))
    assert r.h1_ok and r.h4_ok and r.h5_ok
    assert r.kappa == pytest.approx(1.926875, rel=1e-12)
    assert r.kappa_constraint_used == "b0=0"
    assert r.max_moment_order == pytest.approx(401.0, rel=1e-12)


def test_check_case3_h5_fails():
    r = check_hypotheses(make_case(3))
    assert r.h1_ok
    assert not r.h5_ok
    assert r.kappa < 0.0


def test_check_degenerate_alpha_one():
    m = PrototypeModel(b2=2.0, sigma=0.1, alpha=1.0, validate=False)
    r = check_hypotheses(m)
    assert not r.h1_ok


def test_check_case4_positive_b0_branch():
    r = check_hypotheses(make_case(4))
    assert r.kappa_constraint_used == "b0>0"
    assert r.kappa == pytest.approx(-4.19, rel=1e-12)
    assert not r.h5_ok


def test_check_b0_positive_alpha_gate():
    # alpha <= 3/2 with b0 > 0: constraint inapplicable, kappa reported NaN
    m = PrototypeModel(b0=0.5, b2=5.0, sigma=0.1, alpha=1.4)
    r = check_hypotheses(m)
    assert not r.h5_ok
    assert math.isnan(r.kappa)
    assert any("alpha > 3/2" in n for n in r.notes)


def test_h5_iff_kappa_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = PrototypeModel(
            b0=float(rng.choice([0.0, 1.0])),
            b2=float(rng.uniform(0.0, 10.0)),
            sigma=float(rng.uniform(0.05, 1.5)),
            alpha=float(rng.uniform(1.01, 3.5)),
        )
        r = check_hypotheses(m)
        assert r.h5_ok == (r.kappa >= 0.0)  # NaN compares false


def test_check_is_pure():
    a = check_hypotheses(make_case(5))
    b = check_hypotheses(make_case(5))
    assert a == b


def test_invalid_construction_raises():
    with pytest.raises(ValueError):
        PrototypeModel(alpha=1.0)
    with pytest.raises(ValueError):
        PrototypeModel(sigma=0.0)
    with pytest.raises(ValueError):
        PrototypeModel(x0=0.0)
    with pytest.raises(ValueError):
        PrototypeModel(b2=-0.1)
    with pytest.raises(ValueError):
        PrototypeModel(horizon=0.0)


def _case1_growth():
    # prototype case 1 wrapped as declared metadata: derivative exponents of
    # the polynomial drift x^2 are all 0 (alpha = 1.5)
    return GrowthMetadata(B1=0.0, B2=2.0, B1p=0.0, B2p=4.0,
                          gamma_up=(0.0, 0.0, 0.0, 0.0),
                          gamma_down=(0.0, 0.0, 0.0, 0.0))


def test_general_drift_hypotheses():
    m = GeneralDriftModel(
        drift=lambda x: -2.0 * x * x,
        b_at_zero=0.0,
        sigma=0.1,
        alpha=1.5,
        growth=_case1_growth(),
    )
    r = check_hypotheses(m)
    assert r.h1_ok and r.h4_ok and r.h5_ok
    assert r.kappa_constraint_used == "general"
    assert r.kappa > 0.0


def test_general_drift_missing_metadata():
    m = GeneralDriftModel(drift=lambda x: -x ** 2, b_at_zero=0.0, sigma=0.5, alpha=1.5)
    with pytest.raises(InsufficientMetadataError) as exc:
        check_hypotheses(m)
    assert any("gamma" in f or "B2" in f for f in exc.value.missing)


def test_general_drift_alpha_gate():
    # b(0) > 0 needs alpha > 3/2 for the general class as for the prototype,
    # in the prototype's words
    for alpha, gated in ((1.4, True), (1.5, True), (1.6, False)):
        m = GeneralDriftModel(
            drift=lambda x, a=alpha: 0.5 - 5.0 * np.power(x, 2.0 * a - 1.0),
            b_at_zero=0.5, sigma=0.1, alpha=alpha,
            growth=GrowthMetadata(B1=0.0, B2=5.0, B1p=0.0, B2p=20.0,
                                  gamma_up=(0.0, 0.0, 0.0, 1.0),
                                  gamma_down=(0.0, 0.0, 0.0, 1.0)),
        )
        r = check_hypotheses(m)
        assert math.isnan(r.kappa) == gated
        assert r.h5_ok == (not gated)
        gate_notes = [n for n in r.notes if "alpha > 3/2" in n]
        assert len(gate_notes) == gated
        if gated:
            assert gate_notes[0].startswith(
                "the constant-drift constraint needs alpha > 3/2; "
                f"alpha={alpha} so the order-one condition is not applicable "
                "(raw slack ")


def test_max_moment_order_needs_only_growth_b2():
    m = GeneralDriftModel(drift=lambda x: -2.0 * x * x, b_at_zero=0.0, sigma=0.1,
                          alpha=1.5, growth=GrowthMetadata(B1=0.0, B2=2.0, B1p=0.0, B2p=4.0))
    assert max_moment_order(m) == max_moment_order(make_case(1))
    with pytest.raises(InsufficientMetadataError) as exc:
        check_hypotheses(m)
    assert exc.value.missing == ["growth.gamma_up", "growth.gamma_down"]
    bare = GeneralDriftModel(drift=lambda x: -2.0 * x * x, b_at_zero=0.0,
                             sigma=0.1, alpha=1.5)
    with pytest.raises(InsufficientMetadataError) as exc:
        max_moment_order(bare)
    assert exc.value.missing == ["growth.B2"]


def test_both_classes_state_shared_invariants_alike():
    for bad in (dict(alpha=1.0), dict(sigma=0.0), dict(x0=-1.0), dict(horizon=0.0)):
        shared = {**dict(sigma=0.1, alpha=1.5), **bad}
        with pytest.raises(ValueError) as proto:
            PrototypeModel(b2=1.0, **shared)
        with pytest.raises(ValueError) as general:
            GeneralDriftModel(drift=np.negative, b_at_zero=0.0, **shared)
        assert str(general.value) == str(proto.value)
    with pytest.raises(ValueError, match="^b_at_zero must be nonnegative, got -1.0$"):
        GeneralDriftModel(drift=lambda x: x - 1.0, b_at_zero=-1.0, sigma=0.1, alpha=1.5)


def test_general_drift_b_at_zero_mismatch():
    with pytest.raises(ValueError):
        GeneralDriftModel(drift=lambda x: 1.0 - x ** 2, b_at_zero=0.0, sigma=0.5, alpha=1.5)


def test_general_drift_growth_warning():
    # drift grows like +x^2 but declares a damping bound: must warn
    with pytest.warns(UserWarning):
        GeneralDriftModel(
            drift=lambda x: x * x,
            b_at_zero=0.0,
            sigma=0.5,
            alpha=1.5,
            growth=_case1_growth(),
        )


def test_general_drift_clean_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GeneralDriftModel(
            drift=lambda x: -2.0 * x * x,
            b_at_zero=0.0,
            sigma=0.1,
            alpha=1.5,
            growth=_case1_growth(),
        )
