"""Model definitions and parameter hypothesis checks for the scalar SDE

    dX_t = b(X_t) dt + sigma * X_t^alpha dW_t,   X_0 = x0 > 0,  alpha > 1,

where the drift is dominated by B1*x - B2*x^(2*alpha-1) + b(0).

PrototypeModel fixes the polynomial drift b(x) = b0 + b1*x - b2*x^(2*alpha-1);
its drift_slope method gives the scheme kernels that drift in closed form
from the one power x^(alpha-1) of a step (see drift_eval).
GeneralDriftModel wraps an arbitrary drift callable plus declared growth
metadata.  check_hypotheses evaluates the sufficient parameter conditions for
weak order one of the exponential scheme and reports the slack kappa.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, InitVar
from typing import Callable, Optional

import numpy as np

__all__ = [
    "PrototypeModel",
    "GeneralDriftModel",
    "GrowthMetadata",
    "HypothesisReport",
    "InsufficientMetadataError",
    "drift_eval",
    "kappa",
    "check_hypotheses",
    "alpha_gate_ok",
    "max_moment_order",
]


class InsufficientMetadataError(ValueError):
    """Raised when a general-drift model lacks the growth metadata needed
    by the hypothesis checker.  ``missing`` lists the absent fields."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(
            "general drift model lacks growth metadata: missing "
            + ", ".join(self.missing)
        )


def _check_invariants(model, *nonnegative):
    """Raise ValueError unless alpha > 1, sigma, x0 and the horizon are
    positive, and each field named in nonnegative is >= 0."""
    if not model.alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {model.alpha}")
    for name in ("sigma", "x0", "horizon"):
        if not getattr(model, name) > 0.0:
            raise ValueError(f"{name} must be positive, got {getattr(model, name)}")
    for name in nonnegative:
        if getattr(model, name) < 0.0:
            raise ValueError(f"{name} must be nonnegative, got {getattr(model, name)}")


@dataclass(frozen=True)
class PrototypeModel:
    """Polynomial-drift model b(x) = b0 + b1*x - b2*x^(2*alpha-1).

    ``validate=False`` skips the invariant checks so degenerate parameter
    sets (for example alpha = 1) can still be fed to check_hypotheses,
    which will then report the violated condition instead of raising.
    """

    b0: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    sigma: float = 0.1
    alpha: float = 1.5
    x0: float = 1.0
    horizon: float = 1.0
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if validate:
            _check_invariants(self, "b0", "b1", "b2")

    @property
    def b_at_zero(self) -> float:
        return self.b0

    def drift(self, x):
        """b(x) = b0 + b1*x - b2*x^(2*alpha-1) on an ndarray of states."""
        return self.b0 + self.b1 * x - self.b2 * np.power(x, 2.0 * self.alpha - 1.0)

    def drift_slope(self, xa1, ito=0.0):
        """b1 - (b2 + ito)*xa1^2 as a new array, from xa1 = x^(alpha-1).

        This is (b(x) - b0)/x - ito*x^(2*alpha-2) in closed form, with no
        power of its own: x^(2*alpha-1) = x*xa1^2, so the ratio is
        b1 - b2*xa1^2 (b1 at x = 0).  drift_eval builds b(x) and the
        exponential schemes' exponent coefficient from it.  With b1 = 0 the
        b1 term is skipped, which changes at most the sign of a zero."""
        out = np.multiply(xa1, xa1)
        np.multiply(-(self.b2 + ito), out, out=out)
        if self.b1 != 0.0:
            np.add(self.b1, out, out=out)
        return out


@dataclass(frozen=True)
class GrowthMetadata:
    """Declared growth constants for a general drift.

    B1, B2 bound the drift itself (b(x) <= B1*x - B2*x^(2*alpha-1) + b(0));
    B1p, B2p bound its derivative.  gamma_up[i] / gamma_down[i] are the
    declared local-Lipschitz exponents of the i+1-th derivative (four
    entries, derivative orders 1 through 4).
    """

    B1: float
    B2: float
    B1p: float
    B2p: float
    gamma_up: tuple = ()
    gamma_down: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gamma_up", tuple(float(g) for g in self.gamma_up))
        object.__setattr__(self, "gamma_down", tuple(float(g) for g in self.gamma_down))
        for name in ("gamma_up", "gamma_down"):
            vals = getattr(self, name)
            if len(vals) not in (0, 4):
                raise ValueError(f"{name} needs exactly 4 entries, got {len(vals)}")
            if any(g < 0.0 for g in vals):
                raise ValueError(f"{name} entries must be nonnegative: {vals}")
        for name in ("B1", "B2", "B1p", "B2p"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class GeneralDriftModel:
    """SDE model with a user-supplied drift callable.

    The engine evaluates ``drift`` on whole ndarrays of states, so it must
    accept an ndarray and return one of the same shape (write it with numpy
    operations, for example ``lambda x: -2.0 * np.power(x, 2.0)``).  To run
    with more than one worker process it must also be picklable, that is a
    module-level function rather than a lambda.

    The drift is soft-checked against the declared growth bound on a log
    grid at construction (a warning, not an error: the bound is a
    hypothesis about all of [0, inf), which a finite sample cannot prove).
    """

    drift: Callable[[np.ndarray], np.ndarray]
    b_at_zero: float
    sigma: float
    alpha: float
    x0: float = 1.0
    horizon: float = 1.0
    growth: Optional[GrowthMetadata] = None
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if not validate:
            return
        _check_invariants(self, "b_at_zero")
        try:
            at0 = float(self.drift(0.0))
        except Exception:
            at0 = None
        if at0 is not None and math.isfinite(at0):
            if abs(at0 - self.b_at_zero) > 1e-12 * max(1.0, abs(at0)):
                raise ValueError(
                    f"drift(0) = {at0} disagrees with declared b_at_zero = {self.b_at_zero}"
                )
        if self.growth is not None:
            self._soft_growth_check()

    def _soft_growth_check(self):
        g = self.growth
        xs = np.logspace(-6.0, 6.0, 1000)
        with np.errstate(over="ignore", invalid="ignore"):
            bx = np.array([self.drift(float(x)) for x in xs], dtype=np.float64)
            bound = g.B1 * xs - g.B2 * np.power(xs, 2.0 * self.alpha - 1.0) + self.b_at_zero
        bad = np.isfinite(bx) & np.isfinite(bound) & (bx > bound + 1e-9 * (1.0 + np.abs(bound)))
        if bad.any():
            worst = xs[np.argmax(np.where(bad, bx - bound, -np.inf))]
            warnings.warn(
                f"declared growth bound violated on sampled grid (for example x={worst:.4g}); "
                "hypothesis report may be unreliable",
                stacklevel=3,
            )


@dataclass(frozen=True)
class HypothesisReport:
    h1_ok: bool
    h4_ok: bool
    h5_ok: bool
    kappa: float
    kappa_constraint_used: str
    max_moment_order: float
    notes: tuple = ()


def drift_eval(model, x, xa1=None, ito=None):
    """The model's drift b(x), vectorized over x (a float in, a float out).

    For the prototype, powers use IEEE semantics: 0 maps to 0, an
    integer-valued exponent of a negative base stays real, and a fractional
    power of a negative base is NaN (downstream code treats that as
    divergence).

    The scheme kernels also pass xa1 = x^(alpha-1) of an ndarray x, and,
    for the exponential schemes, ito = sigma^2/2; they call it inside
    their own np.errstate.  With ito the result is the exponent
    coefficient (b(x) - b(0))/x - ito*xa1^2 instead of b(x).  A model with
    a drift_slope(xa1, ito) method (PrototypeModel) gives both in closed
    form from xa1, b(x) as b(0) + x*drift_slope(xa1), with no power of its
    own; that form is finite at x = 0, where the ratio is b1.  Any other
    model is evaluated through its drift(x), and the coefficient as
    (b(x) - b(0))/x - (ito*xa1)*xa1, which is NaN at x = 0.  The result is
    a new array, except that drift(x) may return x itself.
    """
    if xa1 is None:
        xv = np.asarray(x, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            out = model.drift(xv)
        if out.ndim == 0:
            return float(out)
        return out
    b0 = model.b_at_zero
    slope = getattr(model, "drift_slope", None)
    if slope is not None:
        if ito is not None:
            return slope(xa1, ito)
        out = slope(xa1)
        np.multiply(x, out, out=out)
        if b0 != 0.0:
            np.add(b0, out, out=out)
        return out
    b = model.drift(x)
    if ito is None:
        return b
    out = np.divide(np.subtract(b, b0), x)
    correction = np.multiply(ito, xa1)
    np.multiply(correction, xa1, out=correction)
    np.subtract(out, correction, out=out)
    return out


def _bracket(alpha: float) -> float:
    """The three-way max appearing in the order-one parameter constraint."""
    return max(
        12.0 * alpha - 19.0,
        8.0 * alpha - 10.0,
        5.0 * alpha * alpha / (2.0 * alpha - 1.0),
    )


def _growth(model, *fields) -> GrowthMetadata:
    """A general drift's growth metadata, which must declare every field
    named; InsufficientMetadataError lists the ones it lacks."""
    g = model.growth
    missing = [f"growth.{name}" for name in fields
               if g is None or getattr(g, name) == ()]
    if missing:
        raise InsufficientMetadataError(missing)
    return g


def _b2(model) -> float:
    """B2 of the growth bound: the prototype's b2, or a general drift's growth.B2."""
    if isinstance(model, GeneralDriftModel):
        return _growth(model, "B2").B2
    return model.b2


def _drift_slack(model, bracket: float) -> float:
    """B2 - 3*sigma^2*alpha - budget, the budget as kappa gives it."""
    a = model.alpha
    s2 = model.sigma * model.sigma
    budget = 0.5 * s2 * bracket
    if model.b_at_zero > 0.0:
        budget = max(0.5 * a * a, budget)
    return _b2(model) - 3.0 * s2 * a - budget


def kappa(model: PrototypeModel) -> float:
    """Slack of the order-one parameter constraint for the prototype model.

    For b0 = 0:  B2 - 3*sigma^2*alpha - (sigma^2/2) * max{12a-19, 8a-10,
    5a^2/(2a-1)}.  For b0 > 0 the subtracted budget is the max of a^2/2 and
    the same sigma^2/2 bracket.  Nonnegative slack means the hypothesis
    holds (for b0 > 0 this additionally needs alpha > 3/2, see
    alpha_gate_ok; the arithmetic here is well defined for any alpha > 1).
    """
    return _drift_slack(model, _bracket(model.alpha))


def _general_slack(model: GeneralDriftModel) -> float:
    """The smaller of a general drift's drift slack, whose bracket comes
    from the declared exponents gamma_up, and its derivative slack."""
    g = model.growth
    a = model.alpha
    g2, g3, g4 = g.gamma_up[1:]
    beta = max(3.0 * (g2 + 1.0), g2 + g3 + 2.0, g4 + 1.0)
    return min(_drift_slack(model, max(2.0 * beta, beta + 2.0 * a) - 1.0),
               g.B2p - model.sigma * model.sigma * a * (8.5 * a - 3.0))


def alpha_gate_ok(model) -> bool:
    """False when b(0) > 0 and alpha <= 3/2: the order-one constraint for a
    drift with b(0) > 0 needs alpha > 3/2."""
    return not (model.b_at_zero > 0.0 and model.alpha <= 1.5)


def max_moment_order(model) -> float:
    """The largest provably finite moment order 1 + 2*B2/sigma^2 (inf for
    sigma = 0).  B2 is the prototype's b2 or a general drift's growth.B2,
    without which InsufficientMetadataError is raised."""
    s2 = model.sigma * model.sigma
    return 1.0 + 2.0 * _b2(model) / s2 if s2 > 0.0 else math.inf


def check_hypotheses(model) -> HypothesisReport:
    """Evaluate the parameter hypotheses and return a report.

    h1: alpha > 1, sigma > 0, x0 > 0.  h4: derivative growth exponents obey
    gamma_(i) <= i-1 (automatic for the polynomial prototype).  h5: the
    order-one constraint, reported through its slack kappa (h5_ok iff
    kappa >= 0; kappa is NaN unless alpha > 1, and when the b(0) > 0
    constraint is inapplicable because alpha <= 3/2, kappa is NaN and a
    note carries the raw slack).  The slack is kappa(model) for the
    prototype and the smaller of the drift and derivative slacks for a
    general drift, which needs all of its growth metadata.
    """
    if isinstance(model, GeneralDriftModel):
        g = _growth(model, "B1", "B2", "B1p", "B2p", "gamma_up", "gamma_down")
        slack, used = _general_slack, "general"
        h4 = all(g.gamma_down[i] <= float(i) for i in range(4))
        last = () if h4 else (
            f"h4 violated: gamma_down = {g.gamma_down} exceeds (0,1,2,3)",)
    else:
        # polynomial drift: every derivative is again polynomial with
        # local-Lipschitz exponent at most its order minus one
        slack, used, h4 = kappa, "b0>0" if model.b0 > 0.0 else "b0=0", True
        last = ("derived drift-derivative bound uses B2' = (2*alpha-1)*B2 = "
                f"{(2.0 * model.alpha - 1.0) * model.b2:.6g}",)
    notes = []
    h1 = (model.alpha > 1.0) and (model.sigma > 0.0) and (model.x0 > 0.0)
    if not h1:
        notes.append(f"h1 violated: need alpha > 1, sigma > 0, x0 > 0 (got "
                     f"alpha={model.alpha}, sigma={model.sigma}, x0={model.x0})")
    k = slack(model) if model.alpha > 1.0 else math.nan
    if not alpha_gate_ok(model):
        notes.append("the constant-drift constraint needs alpha > 3/2; "
                     f"alpha={model.alpha} so the order-one condition is not "
                     f"applicable (raw slack {k:.6g})")
        k = math.nan
    return HypothesisReport(
        h1_ok=h1, h4_ok=h4, h5_ok=bool(k >= 0.0), kappa=k,
        kappa_constraint_used=used, max_moment_order=max_moment_order(model),
        notes=tuple(notes) + last)
