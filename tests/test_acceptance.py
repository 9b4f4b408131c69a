"""End-to-end acceptance gate: nine criteria, one test per criterion.

Covers convergence order, benchmark error levels, divergence reproduction,
the positivity invariant, step-formula exactness, deterministic-drift
sanity, byte-level output determinism, quadrature and gamma behavior, and
second-moment boundedness.  The session-scoped reference fixture in
conftest dominates the runtime (about six minutes on one core); everything
else is seconds.
"""

import math

import numpy as np
import pytest

from expsde.analysis import fit_rate
from expsde.cli import CASES, main
from expsde.montecarlo import estimate_many, weak_error_sweep
from expsde.reference import (
    DivergentIntegralError,
    adaptive_quadrature,
    analytic_first_moment,
    analytic_second_moment,
    fine_grid_reference,
    gamma_function,
)
from expsde.schemes import SchemeKind, step, step_values
from conftest import ACCEPTANCE_FS, MASTER_SEED, ZeroStream, path_terminal

pytestmark = pytest.mark.slow

CASE1 = CASES["case1"]
CASE2 = CASES["case2"]

# frozen error targets for case1 / exp-es / f(x)=x at levels 2..6
TARGET_ERRORS = {
    2: 3.397e-2,
    3: 1.606e-2,
    4: 7.756e-3,
    5: 3.823e-3,
    6: 1.923e-3,
}


def test_criterion_1_order_one_weak_convergence(case1_sweeps):
    report = []
    for f in ACCEPTANCE_FS:
        fit = fit_rate(case1_sweeps[f], p_min=2, p_max=7)
        report.append(f"{f}: slope={fit.slope:.4f} r2={fit.r_squared:.5f}")
        assert 0.8 <= fit.slope <= 1.2, report[-1]
        assert fit.r_squared >= 0.98, report[-1]
    print("criterion 1: " + "; ".join(report))


def test_criterion_2_benchmark_error_values(case1_sweeps, case1_references):
    # the shared multi-function reference ensemble must be the same thing
    # fine_grid_reference computes one function at a time (checked small)
    small_multi = estimate_many(CASE1, SchemeKind.ExpES, ACCEPTANCE_FS, 6,
                                2000, MASTER_SEED, workers=1)[0]
    small_solo = fine_grid_reference(CASE1, "x", n0=2000, p_ref=6,
                                     seed=MASTER_SEED, use_cache=False)
    assert small_solo.value == small_multi.mean

    table = case1_sweeps["x"]
    ref = case1_references["x"]
    report = []
    for p, target in sorted(TARGET_ERRORS.items()):
        row = table.row(p)
        assert not row.diverged
        band = max(3.0 * math.hypot(row.estimate.stderr, ref.uncertainty),
                   0.15 * target)
        deviation = abs(row.abs_error - target)
        report.append(f"p={p}: err={row.abs_error:.3e} target={target:.3e} "
                      f"band={band:.1e}")
        assert deviation <= band, report[-1]
    print("criterion 2: " + "; ".join(report))


def test_criterion_3_divergence_markers():
    reference = fine_grid_reference(CASE2, "x", n0=20_000, p_ref=8,
                                    seed=MASTER_SEED, use_cache=False)
    tables = {
        kind: weak_error_sweep(CASE2, kind, "x", [2, 3, 4], 100_000,
                               reference, MASTER_SEED, workers=1)
        for kind in (SchemeKind.TES, SchemeKind.STES, SchemeKind.ExpES)
    }
    tes_marked = [r.p for r in tables[SchemeKind.TES].rows if r.diverged]
    stes_marked = [r.p for r in tables[SchemeKind.STES].rows if r.diverged]
    assert tes_marked, "tamed scheme produced no diverged marker"
    assert stes_marked, "stopped tamed scheme produced no diverged marker"
    for row in tables[SchemeKind.ExpES].rows:
        assert not row.diverged
        assert math.isfinite(row.estimate.mean)
    print(f"criterion 3: tes marked at p={tes_marked}, "
          f"stes marked at p={stes_marked}, exp-es all finite")


def test_criterion_4_positivity_invariant():
    # 10^6 random single steps across the whole catalog; every exp-es
    # output must exceed b(0)*dt, with no divergence at all
    rng = np.random.default_rng(12345)
    block = 715
    total = 0
    for model in CASES.values():
        for _ in range(200):
            dt = float(rng.uniform(0.0, 1.0)) or 1e-6  # (0, 1]
            x = np.exp(rng.uniform(math.log(1e-4), math.log(4.0), block))
            dw = rng.normal(0.0, math.sqrt(dt), block)
            out = step_values(SchemeKind.ExpES, model, x, dt, dw)
            assert np.all(np.isfinite(out))
            floor = model.b0 * dt
            assert np.all(out >= floor)
            assert np.all(out > 0.0)
            # the positive part x*exp(...) never underflows on this domain
            # (its exponent stays above -120), so an exact tie with the
            # floor can only be float absorption of a sub-ulp term into
            # a nonzero b0*dt, never a true violation
            if np.any(out == floor):
                assert model.b0 > 0.0
            total += block
    assert total >= 10**6
    print(f"criterion 4: {total} random steps, zero violations")


def test_criterion_5_step_formula_exactness():
    c1, c4 = CASES["case1"], CASES["case4"]
    exact = [
        ("exp-es unit step",
         step(SchemeKind.ExpES, c1, 1.0, 1.0, 0.0), math.exp(-2.005)),
        ("exp-es shifted half step",
         step(SchemeKind.ExpES, c4, 1.0, 0.5, 0.0), 0.5 + math.exp(0.2975)),
        ("explicit exp quarter step",
         step(SchemeKind.ExplicitExpEuler, c1, 1.0, 0.25, 0.1),
         math.exp(-0.49125)),
        ("symmetrized euler",
         step(SchemeKind.SES, c1, 1.0, 0.25, 0.0), 0.5),
        ("symmetrized milstein",
         step(SchemeKind.SMS, c1, 1.0, 0.25, 0.0), 0.49625),
        ("tamed euler",
         step(SchemeKind.TES, c1, 1.0, 0.5, 0.0), 0.5),
        ("stopped tamed euler",
         step(SchemeKind.STES, c1, 1.0, 0.25, 0.0), 0.6),
    ]
    for label, got, want in exact:
        assert got == pytest.approx(want, rel=1e-12), label
    # continuity boundary: a vanishing step moves x by only b(0)*dt
    out = step(SchemeKind.ExpES, c4, 1.0, 1e-15, 0.0)
    assert abs(out - (1.0 + c4.b0 * 1e-15)) <= 1e-12
    # deterministic terminal composition (same oracle as criterion 6)
    terminal, diverged = path_terminal(c1, SchemeKind.ExpES, 10, ZeroStream())
    assert not diverged
    assert abs(terminal - 1.0 / 3.0) <= 2.0 / 1024.0
    print(f"criterion 5: {len(exact)} exact step examples at 1e-12, "
          "continuity and composition checks hold")


def test_criterion_6_zero_noise_matches_ode():
    dt = 1.0 / 1024.0
    terminal, diverged = path_terminal(CASE1, SchemeKind.ExpES, 10,
                                       ZeroStream())
    assert not diverged
    gap = abs(terminal - 1.0 / 3.0)
    assert gap <= 2.0 * dt
    print(f"criterion 6: |terminal - 1/3| = {gap:.2e} <= {2.0 * dt:.2e}")


def test_criterion_7_byte_identical_csv(tmp_path):
    base = ["weak-error", "--case", "case1", "--p-min", "2", "--p-max", "3",
            "--n", "20000", "--n0", "50000", "--p-ref", "8", "--seed", "0",
            "--no-cache"]
    outputs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        dest = tmp_path / f"{tag}.csv"
        rc = main(base + ["--workers", str(workers), "--output", str(dest)])
        assert rc == 0
        outputs.append(dest.read_bytes())
    assert outputs[0] == outputs[1]      # run-to-run
    assert outputs[0] == outputs[2]      # one worker vs four
    print(f"criterion 7: {len(outputs[0])} CSV bytes identical across "
          "reruns and worker counts {1, 4}")


def test_criterion_8_quadrature_and_gamma():
    assert gamma_function(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_function(4.0) == 6.0
    for x in (0.5, 1.3, 2.7):
        assert gamma_function(x + 1.0) == pytest.approx(
            x * gamma_function(x), rel=1e-12)

    unit, _ = adaptive_quadrature(lambda r: 1.0)
    assert unit == pytest.approx(1.0, abs=1e-12)
    inv_sqrt, _ = adaptive_quadrature(lambda r: 1.0, c0=-0.5)
    assert inv_sqrt == pytest.approx(2.0, abs=1e-10)
    beta_half, _ = adaptive_quadrature(lambda r: 1.0, c0=-0.5, c1=-0.5)
    assert beta_half == pytest.approx(math.pi, abs=1e-9)

    for name in ("case1", "case2", "case5"):
        with pytest.raises(DivergentIntegralError):
            analytic_first_moment(CASES[name])
        with pytest.raises(DivergentIntegralError):
            analytic_second_moment(CASES[name])
    print("criterion 8: gamma identities, three quadrature examples, and "
          "six divergent-integral rejections hold")


def test_criterion_9_second_moment_boundedness():
    # n chosen so the 5-sigma band sits above the known O(dt) bias spread
    # (about 4.8e-3 between levels 4 and 8); larger n would turn this
    # boundedness check into a bias test
    ests = {p: estimate_many(CASE1, SchemeKind.ExpES, ("x2",), p, 100, 6,
                             workers=1)[0]
            for p in (4, 6, 8)}
    report = []
    for i, j in ((4, 6), (4, 8), (6, 8)):
        gap = abs(ests[i].mean - ests[j].mean)
        band = 5.0 * math.hypot(ests[i].stderr, ests[j].stderr)
        report.append(f"|m{i}-m{j}|={gap:.2e} band={band:.2e}")
        assert gap <= band, report[-1]
    for est in ests.values():
        assert est.mean < 1.0   # an exploding second moment is enormous
    print("criterion 9: " + "; ".join(report))
