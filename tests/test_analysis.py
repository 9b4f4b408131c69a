"""Rate fitting and table assembly."""

import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from expsde import analysis
from expsde.analysis import (
    CaseTableReport,
    InsufficientDataError,
    build_case_table,
    fit_rate,
    render_compare_csv,
    write_detail_csv,
    write_summary_csv,
)
from expsde.models import GeneralDriftModel, PrototypeModel
from expsde.montecarlo import Estimate, WeakErrorRow, WeakErrorTable, weak_error_sweep
from expsde.reference import fine_grid_reference
from expsde.schemes import SchemeKind

CASE1 = PrototypeModel(b2=2.0, sigma=0.1, alpha=1.5)
CASE2 = PrototypeModel(b2=3.0, sigma=1.0, alpha=1.25)

TABLE1_ERRORS = {2: 3.397e-2, 3: 1.606e-2, 4: 7.756e-3, 5: 3.823e-3,
                 6: 1.923e-3, 7: 1.033e-3, 8: 4.965e-4, 9: 3.199e-4}


def synth_table(errors, diverged=()):
    rows = []
    for p, err in errors.items():
        est = Estimate(mean=0.0, stderr=1e-5, n_effective=100, n_diverged=0)
        bad = p in diverged
        rows.append(WeakErrorRow(p=p, dt=2.0 ** -p, estimate=est,
                                 abs_error=None if bad else err, diverged=bad))
    return WeakErrorTable(rows=tuple(rows))


def test_exact_halving_slope_one():
    fit = fit_rate(synth_table({2: 0.04, 3: 0.02, 4: 0.01}), 2, 4)
    assert fit.slope == 1.0
    assert fit.r_squared == 1.0
    assert fit.points_used == ((2, 0.04), (3, 0.02), (4, 0.01))
    assert fit.excluded == ()


def test_constant_errors_slope_zero():
    fit = fit_rate(synth_table({2: 0.25, 3: 0.25, 4: 0.25}), 2, 4)
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_power_of_two_errors_exact():
    fit = fit_rate(synth_table({2: 1 / 16, 3: 1 / 32, 4: 1 / 64}), 2, 4)
    assert fit.slope == 1.0
    assert fit.intercept == -2.0


def test_table1_printed_values_oracle():
    # least squares over the eight printed errors, cross-checked against
    # an independent polyfit of the same points
    fit = fit_rate(synth_table(TABLE1_ERRORS), 2, 9)
    xs = [math.log2(2.0 ** -p) for p in sorted(TABLE1_ERRORS)]
    ys = [math.log2(TABLE1_ERRORS[p]) for p in sorted(TABLE1_ERRORS)]
    slope_np, icpt_np = np.polyfit(xs, ys, 1)
    assert fit.slope == pytest.approx(slope_np, abs=1e-12)
    assert fit.intercept == pytest.approx(icpt_np, abs=1e-12)
    assert fit.slope == pytest.approx(0.9750941764091577, abs=1e-12)
    assert 0.97 <= fit.slope <= 1.05
    assert fit.r_squared > 0.99


def test_default_window_excludes_saturated_tail():
    fit = fit_rate(synth_table(TABLE1_ERRORS))
    assert fit.points_used[-1][0] == 7
    assert fit.slope == pytest.approx(1.0115279020849712, abs=1e-12)


def test_scale_invariance_exact():
    base = {2: 1 / 16, 3: 1 / 32, 4: 1 / 128}
    scaled = {p: 8 * e for p, e in base.items()}
    a = fit_rate(synth_table(base), 2, 4)
    b = fit_rate(synth_table(scaled), 2, 4)
    assert b.slope == a.slope
    # the means (sum+9)/3 and sum/3 + 3 round differently, so the intercept
    # shift is exact only up to an ulp
    assert b.intercept == pytest.approx(a.intercept + 3.0, abs=1e-14)
    assert b.r_squared == a.r_squared


def test_p_shift_invariance_exact():
    base = {2: 1 / 16, 3: 1 / 32, 4: 1 / 128}
    shifted = {p + 3: e for p, e in base.items()}
    a = fit_rate(synth_table(base), 2, 4)
    b = fit_rate(synth_table(shifted), 5, 7)
    assert b.slope == a.slope


def test_excluded_rows_listed():
    errors = {2: 0.04, 3: 0.02, 4: 0.01, 5: 0.005}
    table = synth_table(errors, diverged=(3,))
    rows = list(table.rows)
    # a zero error cannot enter a log fit either
    rows[rows.index(table.row(4))] = WeakErrorRow(
        p=4, dt=2.0 ** -4, estimate=rows[0].estimate,
        abs_error=0.0, diverged=False)
    fit = fit_rate(WeakErrorTable(rows=tuple(rows)), 2, 5)
    assert fit.excluded == (3, 4)
    assert fit.points_used == ((2, 0.04), (5, 0.005))


def test_insufficient_data_raises():
    with pytest.raises(InsufficientDataError, match="insufficient data"):
        fit_rate(synth_table({2: 0.04, 3: 0.02}, diverged=(3,)), 2, 3)
    with pytest.raises(InsufficientDataError):
        fit_rate(synth_table({2: 0.04, 3: 0.02}), 5, 9)


# ------------------------------------------------------------ table assembly

def small_report(**kw):
    defaults = dict(cases={"case1": CASE1}, schemes=[SchemeKind.ExpES],
                    test_functions=["x"], p_list=[2, 3, 4], n=400, seed=7,
                    n0=500, p_ref=6, use_cache=False)
    defaults.update(kw)
    return build_case_table(**defaults)


def test_single_cell_is_sweep_plus_fit():
    report = small_report()
    cell = report.cell("case1", "exp-es", "x")
    ref = fine_grid_reference(CASE1, "x", n0=500, p_ref=6, seed=7, use_cache=False)
    direct = weak_error_sweep(CASE1, SchemeKind.ExpES, "x", [2, 3, 4], 400, ref, 7)
    assert cell.reference == ref
    assert cell.table == direct
    assert cell.fit is not None
    assert cell.error is None


def test_reference_failure_recorded_not_raised():
    # with alpha = 1.125 the Ito damping sigma^2/2 x^(1/4) stays far below
    # b1 = 100 up to the cap, so every exp-es reference path grows past it
    blow = PrototypeModel(b0=0.0, b1=100.0, b2=0.0, sigma=0.1, alpha=1.125)
    report = small_report(cases={"case1": CASE1, "blow": blow})
    bad = report.cell("blow", "exp-es", "x")
    assert bad.table is None
    assert "reference failed" in bad.error
    good = report.cell("case1", "exp-es", "x")
    assert good.error is None


def _recording_reference_ensembles(monkeypatch):
    from expsde import reference

    calls = []

    def recording(model, kind, fs, *args, _orig=reference.estimate_many, **kw):
        calls.append(list(fs))
        return _orig(model, kind, fs, *args, **kw)

    monkeypatch.setattr(reference, "estimate_many", recording)
    return calls


def test_failing_reference_ensemble_is_simulated_once(monkeypatch):
    blow = PrototypeModel(b0=0.0, b1=100.0, b2=0.0, sigma=0.1, alpha=1.125)
    fs = ["x", "x2", "exp_neg_x2"]
    calls = _recording_reference_ensembles(monkeypatch)
    report = small_report(cases={"blow": blow}, test_functions=fs)
    assert calls == [fs]
    for f in fs:
        cell = report.cell("blow", "exp-es", f)
        assert cell.table is None and cell.reference is None
        assert cell.error == ("reference failed: 500 of 500 reference trajectories "
                              "diverged (> 0.1%); reference untrustworthy")


def _nowhere_finite(x):
    return np.full_like(x, np.nan)


def test_unreliable_reference_lands_on_its_function_alone(monkeypatch):
    # only the callable's reference is unreliable: the named functions keep
    # the references and cells they get without it
    fs = ["x", _nowhere_finite, "x2"]
    calls = _recording_reference_ensembles(monkeypatch)
    report = small_report(test_functions=fs)
    assert calls == [fs]
    bad = report.cell("case1", "exp-es", _nowhere_finite)
    assert bad.table is None and bad.error.startswith("reference failed: 500 of 500 ")
    alone = small_report(test_functions=["x", "x2"])
    for f in ("x", "x2"):
        assert report.cell("case1", "exp-es", f) == alone.cell("case1", "exp-es", f)


def _drift_refusing_negative_states(x):
    if np.any(x < 0.0):
        raise ValueError("negative state")
    return -3.0 * np.power(x, 1.5)


def _x_refusing_negative_terminals(x):
    if np.any(x < 0.0):
        raise ValueError("negative terminal")
    return x


def test_programming_errors_propagate(monkeypatch):
    # only statistical outcomes become table cells; a model missing part of
    # the protocol or a drift that only takes scalars raises
    no_b_at_zero = SimpleNamespace(alpha=1.5, sigma=0.1, x0=1.0, horizon=1.0,
                                   drift=CASE1.drift)
    with pytest.raises(AttributeError, match="b_at_zero"):
        small_report(cases={"broken": no_b_at_zero})
    scalar_drift = GeneralDriftModel(drift=lambda x: -2.0 * math.pow(x, 2.0),
                                     b_at_zero=0.0, sigma=0.1, alpha=1.5)
    with pytest.raises(TypeError):
        small_report(cases={"scalar": scalar_drift})

    def buggy_sweep(*args, **kwargs):
        raise TypeError("bug in the sweep")

    monkeypatch.setattr(analysis, "weak_error_sweep", buggy_sweep)
    with pytest.raises(TypeError, match="bug in the sweep"):
        small_report()


def test_a_refusing_drift_propagates_out_of_the_table():
    # case 2's drift, refusing the negative states that tes reaches at
    # coarse steps; the exp-es reference stays positive and is fine, but
    # the ValueError of the tes sweep is raised, not kept as a cell
    refusing = GeneralDriftModel(drift=_drift_refusing_negative_states,
                                 b_at_zero=0.0, sigma=1.0, alpha=1.25)
    with pytest.raises(ValueError, match="negative state"):
        small_report(cases={"refusing": refusing},
                     schemes=[SchemeKind.ExpES, SchemeKind.TES])


def test_a_refusing_test_function_propagates_out_of_the_table():
    # tes keeps the negative states it reaches on case2 at p = 2 as frozen
    # terminals, which this test function refuses; the ValueError is
    # raised, not kept as a cell
    with pytest.raises(ValueError, match="negative terminal"):
        small_report(cases={"case2": CASE2},
                     schemes=[SchemeKind.ExpES, SchemeKind.TES],
                     test_functions=["x", _x_refusing_negative_terminals],
                     p_list=[2, 3])


def _refuse(x):
    raise ValueError("refused")


def test_a_refusing_test_function_raises_after_one_reference_ensemble(monkeypatch):
    # the reference ensemble is simulated once for every f, and the
    # ValueError of the one that refuses its terminals is not retried
    fs = ["x", "x2", _refuse]
    calls = _recording_reference_ensembles(monkeypatch)
    with pytest.raises(ValueError, match="refused"):
        small_report(test_functions=fs)
    assert calls == [fs]


def test_divergent_rows_leave_fit_note():
    # case 2 tamed-Euler rows at tiny p are all marked, so no fit is possible
    report = small_report(cases={"case2": CASE2}, schemes=[SchemeKind.TES],
                          p_list=[2, 3], n=600)
    cell = report.cell("case2", "tes", "x")
    assert cell.table is not None
    assert cell.fit is None
    assert "insufficient data" in cell.error


def test_repeated_level_leaves_fit_note():
    # two usable rows at one level span no dt range, so they give no slope
    ref = SimpleNamespace(value=0.0)
    table = weak_error_sweep(CASE1, SchemeKind.ExpES, "x", [3, 3], 300, ref, 0)
    assert [(r.p, r.diverged) for r in table.rows] == [(3, False), (3, False)]
    with pytest.raises(InsufficientDataError, match="2 usable rows at one level"):
        fit_rate(table)
    cell = small_report(p_list=[3, 3]).cell("case1", "exp-es", "x")
    assert cell.table is not None and cell.fit is None
    assert "insufficient data" in cell.error


def test_report_cell_lookup_errors():
    report = small_report()
    with pytest.raises(KeyError):
        report.cell("case9", "exp-es", "x")


# -------------------------------------------------------------------- CSV

def test_detail_csv_shape_and_determinism():
    report = small_report()
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_detail_csv(report, buf1)
    write_detail_csv(report, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0] == "case,scheme,test_fn,p,dt,estimate,stderr,reference,ref_method,abs_error,diverged"
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "case1" and first[1] == "exp-es" and first[3] == "2"
    assert first[8] == "fine-grid-mc"
    assert first[10] == "0"
    # repr floats round-trip
    assert float(first[5]) == report.cells[0].table.row(2).estimate.mean


def test_detail_csv_marks_divergent_rows():
    report = small_report(cases={"case2": CASE2}, schemes=[SchemeKind.TES],
                          p_list=[2], n=600)
    buf = io.StringIO()
    write_detail_csv(report, buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert row[9] == "-"
    assert row[10] == "1"


def test_summary_csv():
    report = small_report()
    buf = io.StringIO()
    write_summary_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "case,scheme,test_fn,slope,r_squared,p_min,p_max"
    fields = lines[1].split(",")
    assert fields[:3] == ["case1", "exp-es", "x"]
    assert float(fields[3]) == report.cells[0].fit.slope
    assert fields[5:] == ["2", "4"]


def test_summary_csv_dash_on_failed_fit():
    report = small_report(cases={"case2": CASE2}, schemes=[SchemeKind.TES],
                          p_list=[2, 3], n=600)
    buf = io.StringIO()
    write_summary_csv(report, buf)
    assert buf.getvalue().splitlines()[1].split(",")[3] == "-"


def test_compare_renders_dash_cells():
    report = small_report(cases={"case2": CASE2},
                          schemes=[SchemeKind.TES, SchemeKind.ExpES],
                          p_list=[2, 6], n=600)
    text = render_compare_csv(report)
    lines = text.splitlines()
    assert lines[0] == "case,scheme,test_fn,p2,p6"
    tes = next(l for l in lines if ",tes," in l)
    exp = next(l for l in lines if ",exp-es," in l)
    assert tes.split(",")[3] == "-"
    assert exp.split(",")[3] != "-"
    # numeric cells use fixed scientific formatting
    assert "e-" in exp.split(",")[3]


def test_csv_file_destination(tmp_path):
    report = small_report()
    out = tmp_path / "detail.csv"
    with open(out, "w", newline="") as fh:
        write_detail_csv(report, fh)
    assert out.read_text().startswith("case,scheme")


def test_compare_simulates_one_reference_per_case(tmp_path, monkeypatch):
    from expsde import cli

    argv = ["compare", "--case", "case1", "--test-fn", "x", "--test-fn", "x2",
            "--test-fn", "exp_neg_x2", "--p-min", "2", "--p-max", "3",
            "--n", "500", "--n0", "2048", "--p-ref", "8", "--no-cache"]
    calls = _recording_reference_ensembles(monkeypatch)
    assert cli.main(argv + ["--output", str(tmp_path / "one.csv")]) == 0
    assert calls == [["x", "x2", "exp_neg_x2"]]
