"""Reference oracles: gamma, weighted quadrature, closed-form moments,
fine-grid MC, and the disk cache."""

import math

import numpy as np
import pytest

from expsde import reference
from expsde.models import PrototypeModel
from expsde.reference import (
    DivergentIntegralError,
    QuadratureNotConverged,
    ReferenceMethod,
    UnreliableReferenceError,
    adaptive_quadrature,
    analytic_first_moment,
    analytic_second_moment,
    chi_square_moment,
    default_cache_dir,
    fine_grid_reference,
    gamma_function,
)

CASE1 = PrototypeModel(b2=2.0, sigma=0.1, alpha=1.5)
CASE2 = PrototypeModel(b2=3.0, sigma=1.0, alpha=1.25)
CASE5 = PrototypeModel(b2=10.0, sigma=0.5, alpha=1.125)
CASE6 = PrototypeModel(b2=0.01, sigma=0.1, alpha=1.25)
# strong-drift unit-noise model: moments finite up to order 7, so x and x2
# estimates both have honest standard errors
SOLID = PrototypeModel(b2=2.0, sigma=1.0, alpha=1.5)
# the one family in these tests where the published integrals converge too
CONV = PrototypeModel(b2=0.4, sigma=1.0, alpha=2.0)


# ------------------------------------------------------------------- gamma

def test_gamma_known_values():
    assert gamma_function(1.0) == 1.0
    assert gamma_function(4.0) == 6.0
    assert math.isclose(gamma_function(0.5), math.sqrt(math.pi), rel_tol=1e-14)


def test_gamma_recurrence_sampled():
    rng = np.random.default_rng(42)
    for x in rng.uniform(0.1, 20.0, size=200):
        lhs = gamma_function(x + 1.0)
        rhs = x * gamma_function(x)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma_function(0.0)
    with pytest.raises(ValueError):
        gamma_function(-1.5)


# -------------------------------------------------------------- quadrature

def test_quadrature_unit():
    value, bound = adaptive_quadrature(lambda r: 1.0)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert bound >= 0.0


def test_quadrature_inverse_sqrt():
    value, _ = adaptive_quadrature(lambda r: 1.0, c0=-0.5)
    assert value == pytest.approx(2.0, abs=1e-10)


def test_quadrature_beta_half_half():
    value, bound = adaptive_quadrature(lambda r: 1.0, c0=-0.5, c1=-0.5)
    assert abs(value - math.pi) <= 1e-10
    assert bound <= 1e-10


def test_quadrature_near_minus_one_exponent():
    # exact Beta integral with c1 = -0.9; the naive mirrored substitution
    # would evaluate the weight at its pole here
    value, _ = adaptive_quadrature(lambda r: 1.0, c0=-0.5, c1=-0.9)
    expected = gamma_function(0.5) * gamma_function(0.1) / gamma_function(0.6)
    assert value == pytest.approx(expected, rel=1e-9)


def test_quadrature_rejects_nonintegrable():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda r: 1.0, c0=-1.0)
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda r: 1.0, c1=-1.5)


def test_quadrature_not_converged_carries_best_estimate():
    with pytest.raises(QuadratureNotConverged) as exc:
        adaptive_quadrature(lambda r: math.cos(1e6 * r), tol=1e-10)
    assert math.isfinite(exc.value.value)
    assert exc.value.error_bound > 1e-10


# ------------------------------------------------- published moment integrals

@pytest.mark.parametrize("case", [CASE1, CASE2, CASE5], ids=["case1", "case2", "case5"])
def test_published_first_moment_diverges_on_catalog(case):
    with pytest.raises(DivergentIntegralError, match="divergent integral"):
        analytic_first_moment(case)


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE5], ids=["case1", "case2", "case5"])
def test_published_second_moment_diverges_on_catalog(case):
    with pytest.raises(DivergentIntegralError, match="divergent integral"):
        analytic_second_moment(case)


def test_published_guard_boundary():
    # exponent exactly -1 is still divergent (log endpoint)
    edge = PrototypeModel(b2=0.5, sigma=1.0, alpha=1.5)
    with pytest.raises(DivergentIntegralError):
        analytic_first_moment(edge)


def test_published_moments_converge_on_conv_model():
    a1 = analytic_first_moment(CONV)
    a2 = analytic_second_moment(CONV)
    assert a1.method is ReferenceMethod.AnalyticIntegral
    assert a1.value == pytest.approx(0.316353, rel=1e-4)
    assert a2.value == pytest.approx(3.1908, rel=1e-4)
    assert a1.uncertainty <= 1e-9 and a2.uncertainty <= 1e-9


def test_published_values_fail_cross_validation():
    # where the published integral converges it disagrees with the
    # noncentral chi-square law of X_T: 0.3164 against 0.5765
    published = analytic_first_moment(CONV).value
    law = chi_square_moment(CONV, 1.0).value
    assert abs(published - law) > 0.2


def test_published_moment_preconditions():
    with pytest.raises(ValueError):
        analytic_first_moment(PrototypeModel(b0=1.0, b1=1.0, b2=0.4, sigma=0.1, alpha=3.0))
    with pytest.raises(ValueError):
        analytic_first_moment(PrototypeModel(b2=0.1, sigma=1.0, alpha=1.5, x0=2.0))


# --------------------------------------------------- chi-square moment oracle

def test_chi_square_frozen_values():
    assert chi_square_moment(CASE1, 1).value == pytest.approx(0.3329629636, rel=1e-8)
    assert chi_square_moment(SOLID, 1).value == pytest.approx(0.2969970751, rel=1e-8)
    assert chi_square_moment(SOLID, 2).value == pytest.approx(0.1090087746, rel=1e-8)
    assert chi_square_moment(CONV, 1).value == pytest.approx(0.5765101241, rel=1e-8)


def test_chi_square_case5_case6_second_moment():
    # a prefactor of about 7e10 (case6) scales the raw integral, so only a
    # tolerance on the returned value gets these right; the literals agree
    # with scipy.stats.ncx2's expectation and a 40-digit quadrature
    case6 = chi_square_moment(CASE6, 2)
    assert case6.value == pytest.approx(0.99003125, rel=1e-12)
    assert case6.uncertainty < 1e-12
    case5 = chi_square_moment(CASE5, 2)
    assert case5.value == pytest.approx(4.50360995900693e-05, rel=1e-10)
    assert case5.uncertainty < 1e-12


def test_chi_square_near_ode_limit():
    # case 1 noise is tiny, so E[X_1] sits next to the zero-noise terminal 1/3
    value = chi_square_moment(CASE1, 1).value
    assert abs(value - 1.0 / 3.0) < 2e-3


def test_chi_square_matches_mc_solid_x():
    chi = chi_square_moment(SOLID, 1)
    mc = fine_grid_reference(SOLID, "x", n0=20000, p_ref=10, seed=77, use_cache=False)
    assert abs(chi.value - mc.value) <= 3.0 * (chi.uncertainty + mc.uncertainty)


def test_chi_square_matches_mc_solid_x2():
    chi = chi_square_moment(SOLID, 2)
    mc = fine_grid_reference(SOLID, "x2", n0=20000, p_ref=10, seed=77, use_cache=False)
    assert abs(chi.value - mc.value) <= 3.0 * (chi.uncertainty + mc.uncertainty)


def test_chi_square_matches_mc_case1():
    chi = chi_square_moment(CASE1, 1)
    mc = fine_grid_reference(CASE1, "x", n0=10000, p_ref=12, seed=77, use_cache=False)
    assert abs(chi.value - mc.value) <= 3.0 * (chi.uncertainty + mc.uncertainty)


def test_chi_square_infinite_moment_guard():
    # finite only below 2*B2/sigma^2 + 2*alpha - 1 = 7 for the solid model
    with pytest.raises(DivergentIntegralError):
        chi_square_moment(SOLID, 7.5)
    with pytest.raises(ValueError):
        chi_square_moment(SOLID, 0.0)


# --------------------------------------------------------------- fine grid MC

def test_fine_grid_constant_function():
    ref = fine_grid_reference(CASE1, lambda x: np.ones_like(x), n0=200, p_ref=3,
                              seed=1, use_cache=False)
    assert ref.value == 1.0
    assert ref.uncertainty == 0.0
    assert ref.method is ReferenceMethod.FineGridMC


def test_fine_grid_single_trajectory_stderr_inf():
    ref = fine_grid_reference(CASE1, "x", n0=1, p_ref=2, seed=3, use_cache=False)
    assert math.isfinite(ref.value)
    assert ref.uncertainty == math.inf


def test_fine_grid_diverged_gate():
    # explosive linear growth overshoots the cap in one coarse step
    blow = PrototypeModel(b0=0.0, b1=100.0, b2=0.0, sigma=0.1, alpha=1.5)
    with pytest.raises(UnreliableReferenceError):
        fine_grid_reference(blow, "x", n0=100, p_ref=1, seed=1, use_cache=False)


def _nowhere_finite(x):
    return np.full_like(x, np.nan)


def test_fine_grid_sequence_keeps_reliable_entries(tmp_path):
    # an f with no finite value is unreliable on its own: the error raised
    # is its own, and carries every other entry's reference, each cached
    kw = dict(n0=300, p_ref=4, seed=11)
    fs = ["x", _nowhere_finite, "x2", _nowhere_finite]
    with pytest.raises(UnreliableReferenceError, match="^300 of 300 ") as exc:
        fine_grid_reference(CASE1, fs, cache_dir=tmp_path, **kw)
    refs = exc.value.refs
    assert refs[1] is exc.value
    assert isinstance(refs[3], UnreliableReferenceError) and str(refs[3]) == str(refs[1])
    assert [refs[0], refs[2]] == [fine_grid_reference(CASE1, f, use_cache=False, **kw)
                                  for f in ("x", "x2")]
    assert len((tmp_path / "references.txt").read_text().splitlines()) == 2


def test_fine_grid_validates_arguments():
    with pytest.raises(ValueError):
        fine_grid_reference(CASE1, "x", n0=0, p_ref=4, seed=1, use_cache=False)
    with pytest.raises(ValueError):
        fine_grid_reference(CASE1, "x", n0=10, p_ref=0, seed=1, use_cache=False)
    with pytest.raises(ValueError):
        fine_grid_reference(CASE1, "not_a_function", n0=10, p_ref=2, seed=1,
                            use_cache=False)


def test_fine_grid_deterministic():
    a = fine_grid_reference(CASE1, "x", n0=300, p_ref=4, seed=11, use_cache=False)
    b = fine_grid_reference(CASE1, "x", n0=300, p_ref=4, seed=11, use_cache=False)
    assert a == b


# --------------------------------------------------------------------- cache

def test_cache_round_trip(tmp_path):
    kw = dict(n0=64, p_ref=2, seed=9, cache_dir=tmp_path)
    first = fine_grid_reference(CASE1, "x", **kw)
    assert (tmp_path / "references.txt").exists()
    second = fine_grid_reference(CASE1, "x", **kw)
    assert second == first


def test_cache_hit_skips_recompute(tmp_path):
    kw = dict(n0=64, p_ref=2, seed=9, cache_dir=tmp_path)
    fine_grid_reference(CASE1, "x", **kw)
    path = tmp_path / "references.txt"
    key = path.read_text().split()[0]
    path.write_text(f"{key} 123.5 0.25\n")
    tampered = fine_grid_reference(CASE1, "x", **kw)
    assert tampered.value == 123.5
    assert tampered.uncertainty == 0.25


def test_cache_key_separates_parameters(tmp_path):
    kw = dict(n0=64, p_ref=2, cache_dir=tmp_path)
    a = fine_grid_reference(CASE1, "x", seed=9, **kw)
    b = fine_grid_reference(CASE1, "x", seed=10, **kw)
    assert a.value != b.value
    assert len((tmp_path / "references.txt").read_text().splitlines()) == 2


def test_cache_serves_only_its_numerics_version(tmp_path, monkeypatch):
    kw = dict(n0=64, p_ref=2, seed=9, cache_dir=tmp_path)
    fresh = fine_grid_reference(CASE1, "x", use_cache=False, **kw)
    monkeypatch.setattr(reference, "NUMERICS_VERSION", reference.NUMERICS_VERSION + 1)
    fine_grid_reference(CASE1, "x", **kw)
    path = tmp_path / "references.txt"
    key = path.read_text().split()[0]
    path.write_text(f"{key} 123.5 0.25\n")
    monkeypatch.undo()
    assert fine_grid_reference(CASE1, "x", **kw) == fresh
    assert len(path.read_text().splitlines()) == 2


def test_cache_disabled_by_flag(tmp_path):
    fine_grid_reference(CASE1, "x", n0=64, p_ref=2, seed=9, cache_dir=tmp_path,
                        use_cache=False)
    assert not (tmp_path / "references.txt").exists()


def test_cache_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("EXPSDE_CACHE_DIR", str(tmp_path))
    assert default_cache_dir() == tmp_path
    fine_grid_reference(CASE1, "x", n0=64, p_ref=2, seed=9)
    assert (tmp_path / "references.txt").exists()
    monkeypatch.delenv("EXPSDE_CACHE_DIR")
    assert default_cache_dir() is None


def test_cache_ignores_record_cut_short(tmp_path):
    # an interrupted write leaves a record without its newline; a prefix of
    # the uncertainty ("0.00") must not be served as the uncertainty
    kw = dict(n0=64, p_ref=2, seed=9, cache_dir=tmp_path, use_cache=False)
    fresh = fine_grid_reference(CASE1, "x", **kw)
    kw["use_cache"] = True
    fine_grid_reference(CASE1, "x", **kw)
    path = tmp_path / "references.txt"
    record = path.read_text()
    key = record.split()[0]
    path.write_text(f"{key} {fresh.value!r} 0.00")
    served = fine_grid_reference(CASE1, "x", **kw)
    assert served == fresh
    assert served.uncertainty > 0.0
    # the store drops the cut-short tail, and the new record is served next
    assert path.read_text() == record
    assert fine_grid_reference(CASE1, "x", **kw) == fresh


def test_cache_cut_short_record_stays_unserved_after_another_store(tmp_path):
    # a later record for another key must not complete the cut-short line
    kw = dict(n0=64, p_ref=2, seed=9, cache_dir=tmp_path)
    fresh = fine_grid_reference(CASE1, "x", use_cache=False, **kw)
    path = tmp_path / "references.txt"
    fine_grid_reference(CASE1, "x", **kw)
    key = path.read_text().split()[0]
    path.write_text(f"{key} {fresh.value!r} 0.00")
    other = dict(kw, seed=10)
    fine_grid_reference(CASE1, "x", **other)
    assert path.read_text().count("\n") == 1
    assert key not in path.read_text()
    served = fine_grid_reference(CASE1, "x", **kw)
    assert served == fresh
    assert served.uncertainty > 0.0


def test_cache_skips_unparsable_record(tmp_path):
    kw = dict(n0=64, p_ref=2, seed=9, cache_dir=tmp_path)
    first = fine_grid_reference(CASE1, "x", **kw)
    path = tmp_path / "references.txt"
    key = path.read_text().split()[0]
    path.write_text(f"{key} 0.0022584x 0.01\n{key} 0.5 nan\n")
    assert fine_grid_reference(CASE1, "x", **kw) == first
    # a bad record is skipped, not fatal: a later good one is still served
    path.write_text(f"{key} 123.5 0.25\n{key} 0.0022584x 0.01\n")
    assert fine_grid_reference(CASE1, "x", **kw).value == 123.5


def test_cache_store_drops_cut_short_tail(tmp_path):
    path = tmp_path / "references.txt"
    path.write_text("0123abc 0.25 0.01\n0123abd 0.3174")
    first = fine_grid_reference(CASE1, "x", n0=64, p_ref=2, seed=9, cache_dir=tmp_path)
    lines = path.read_text().split("\n")
    # complete records are kept, the unterminated one is gone
    assert lines[0] == "0123abc 0.25 0.01"
    assert lines[1].split()[1:] == [repr(first.value), repr(first.uncertainty)]
    assert lines[2:] == [""]


def test_fine_grid_sequence_shares_one_ensemble(tmp_path, monkeypatch):
    calls = []

    def recording(model, kind, fs, *args, _orig=reference.estimate_many, **kw):
        calls.append(list(fs))
        return _orig(model, kind, fs, *args, **kw)

    kw = dict(n0=300, p_ref=4, seed=11)
    fs = ["x", "x2", np.ones_like, "exp_neg_x2"]
    alone = [fine_grid_reference(CASE1, f, use_cache=False, **kw) for f in fs]
    monkeypatch.setattr(reference, "estimate_many", recording)
    together = fine_grid_reference(CASE1, fs, use_cache=False, **kw)
    assert together == alone and calls == [fs]
    # one record per named f; a later call simulates only its misses
    calls.clear()
    assert fine_grid_reference(CASE1, fs, cache_dir=tmp_path, **kw) == alone
    records = (tmp_path / "references.txt").read_text().splitlines()
    assert len(records) == 3
    mixed = fine_grid_reference(CASE1, ("x2", "inv_x"), cache_dir=tmp_path, **kw)
    assert mixed[0] == alone[1]
    assert mixed[1] == fine_grid_reference(CASE1, "inv_x", use_cache=False, **kw)
    assert calls == [fs, ["inv_x"], ["inv_x"]]
    assert len((tmp_path / "references.txt").read_text().splitlines()) == 4
    # a repeated f is one record
    twice = fine_grid_reference(CASE1, ["x", "x"], cache_dir=tmp_path / "twice", **kw)
    assert twice == [alone[0], alone[0]]
    assert len((tmp_path / "twice" / "references.txt").read_text().splitlines()) == 1
    with pytest.raises(ValueError, match="test function"):
        fine_grid_reference(CASE1, [], use_cache=False, **kw)
