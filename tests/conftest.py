"""Session fixtures for the acceptance suite.

The expensive piece is the fine-grid reference ensemble (10^6 trajectories
at refinement level 12: 103 s at one worker and 57 s at two on a 2-core
machine), which runs on every CPU.  Simulated terminals do not depend on
the test function, so a single estimate_many pass yields the reference
expectation for all three functions at once;
each per-function value is identical to what fine_grid_reference would
return for the same seed (test_acceptance asserts this at small size).
Only the acceptance module requests these fixtures, so unit-test runs
never pay for them.

Also here: STEP_AGREEMENT, the per-step bound between the closed-form
kernels and the power forms they replaced; ZeroStream, a stream fake whose
draws are all zero; and path_terminal, the terminal of one path stepped by
simulate_paths.
"""

import os

import numpy as np
import pytest

from expsde.cli import CASES
from expsde.montecarlo import estimate_many, simulate_paths, weak_error_sweep
from expsde.reference import ReferenceMethod, ReferenceValue
from expsde.schemes import SchemeKind

ACCEPTANCE_FS = ("x", "x2", "exp_neg_x2")
REFERENCE_N0 = 10**6
REFERENCE_P = 12
SWEEP_N = 10**5
SWEEP_P = list(range(2, 8))
MASTER_SEED = 0
# the relative distance by which one step of a closed-form kernel may
# differ from the same step written with a power per term (measured on
# test_lean_paths' state grid: at most 3.6e-15); after k steps a path or a
# mean may differ by up to k times this
STEP_AGREEMENT = 8e-15


class ZeroStream:
    """Test double for a one-row Gaussian stream: every draw is 0, so
    Brownian increments vanish and a simulation reduces to the deterministic
    part of the scheme."""

    count = 1

    def __init__(self):
        self.counter = 0

    def standard_normals(self, n):
        self.counter += int(n)
        return np.zeros((1, int(n)))


def path_terminal(model, kind, p, stream):
    """(terminal value, diverged flag) of the path drawn from the one-row
    stream; a diverged path reports its last good state."""
    for x, div in simulate_paths(model, kind, p, stream):
        pass
    return float(x[0]), bool(div[0])


@pytest.fixture(scope="session")
def case1_references():
    model = CASES["case1"]
    # every worker count gives the same bits (criterion 7)
    ests = estimate_many(model, SchemeKind.ExpES, ACCEPTANCE_FS, REFERENCE_P,
                         REFERENCE_N0, MASTER_SEED, workers=os.cpu_count() or 1)
    out = {}
    for f, est in zip(ACCEPTANCE_FS, ests):
        assert est.n_diverged == 0
        out[f] = ReferenceValue(est.mean, ReferenceMethod.FineGridMC,
                                est.stderr,
                                {"n0": REFERENCE_N0, "p_ref": REFERENCE_P,
                                 "seed": MASTER_SEED,
                                 "scheme": SchemeKind.ExpES.value})
    return out


@pytest.fixture(scope="session")
def case1_sweeps(case1_references):
    # one sweep for the three functions gives each the table of a sweep of
    # that function alone
    tables = weak_error_sweep(CASES["case1"], SchemeKind.ExpES, ACCEPTANCE_FS,
                              SWEEP_P, SWEEP_N,
                              [case1_references[f] for f in ACCEPTANCE_FS],
                              MASTER_SEED, workers=1)
    return dict(zip(ACCEPTANCE_FS, tables))
