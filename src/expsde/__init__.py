"""Weak-error toolkit for one-dimensional SDEs with superlinear polynomial
coefficients.

The pieces, bottom up: model descriptions and parameter hypothesis checks
(models), keyed Gaussian streams (paths), the positivity-preserving
exponential step plus tamed/symmetrized comparison schemes (schemes), the
Monte Carlo engine with divergence accounting (montecarlo), analytic and
fine-grid reference expectations (reference), convergence-rate fits and
CSV reporting (analysis), and the command-line front end (cli).
"""

import importlib

from .analysis import (
    CaseTableReport,
    InsufficientDataError,
    RateFit,
    build_case_table,
    fit_rate,
    render_compare_csv,
    write_detail_csv,
    write_summary_csv,
)
from .models import (
    GeneralDriftModel,
    HypothesisReport,
    PrototypeModel,
    check_hypotheses,
    drift_eval,
    kappa,
)
from .montecarlo import (
    TEST_FUNCTIONS,
    Estimate,
    WeakErrorTable,
    estimate_many,
    simulate_paths,
    weak_error_sweep,
)
from .paths import GaussianStream, make_stream
from .reference import (
    DivergentIntegralError,
    QuadratureNotConverged,
    ReferenceMethod,
    ReferenceValue,
    UnreliableReferenceError,
    adaptive_quadrature,
    chi_square_moment,
    fine_grid_reference,
    gamma_function,
)
from .schemes import DIVERGENCE_CAP, SchemeKind, alive, step, step_values

__version__ = "0.1.0"


def __getattr__(name):
    # the CLI is imported on first use, not with the package: `python -m
    # expsde.cli` (and, where workers are spawned, every worker of such a
    # run) imports the package before it runs the module, and warns if the
    # module is already in sys.modules by then
    if name in ("cli", "CASES", "main"):
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "CASES", "main",
    "PrototypeModel", "GeneralDriftModel", "HypothesisReport",
    "check_hypotheses", "drift_eval", "kappa",
    "GaussianStream", "make_stream",
    "SchemeKind", "DIVERGENCE_CAP", "alive", "step", "step_values",
    "Estimate", "WeakErrorTable", "TEST_FUNCTIONS",
    "estimate_many", "simulate_paths", "weak_error_sweep",
    "ReferenceMethod", "ReferenceValue", "DivergentIntegralError",
    "QuadratureNotConverged", "UnreliableReferenceError",
    "gamma_function", "adaptive_quadrature", "chi_square_moment",
    "fine_grid_reference",
    "RateFit", "InsufficientDataError", "fit_rate", "CaseTableReport",
    "build_case_table", "write_detail_csv", "write_summary_csv",
    "render_compare_csv",
]
