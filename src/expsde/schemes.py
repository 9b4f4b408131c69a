"""One-step update rules: the array kernels and the scalar step.

Seven schemes for dX = b(X) dt + sigma X^alpha dW:

  ExpES             b(0)dt + X exp{sigma X^(a-1) dW
                               + ((b(X)-b(0))/X - sigma^2/2 X^(2a-2)) dt}
  ExplicitExpEuler  X exp{sigma X^(a-1) dW + (b(X)/X - sigma^2/2 X^(2a-2)) dt}
  SES               |X + b(X) dt + sigma X^a dW|
  SMS               SES plus the Milstein correction inside the bars
  SMSHalf           SMS with the textbook half correction coefficient
  TES               X + b(X) dt / (1 + |b(X)| dt) + sigma X^a dW
  STES              X + inc/(1 + inc^2) * 1{|X| < exp(sqrt|ln dt|)},
                    inc = b(X) dt + sigma X^a dW

Each step takes one power, xa1 = X^(a-1), and builds the others from it:
X^a = X xa1 and X^(2a-1) = X^a xa1.  The kernels read alpha, sigma and
b_at_zero of the model and get the drift through drift_eval(model, X, xa1),
so any model offering those and a vectorized drift(x) runs.  A model with a
drift_slope(xa1, ito) method, PrototypeModel, takes no power of its own
there: for b(x) = b0 + b1 x - b2 x^(2a-1),

  (b(X) - b0)/X = b1 - b2 xa1^2          and  b(X) = b0 + X (b1 - b2 xa1^2),

and the exponential schemes fold the Ito term into the coefficient:

  ExpES             b0 dt + X exp{(sigma xa1) dW + c dt},  c = b1 - (b2 + sigma^2/2) xa1^2
  ExplicitExpEuler  X exp{(sigma xa1) dW + (c + b0/X) dt}

Any other model's c is (b(X) - b(0))/X - (sigma^2/2 xa1) xa1, from its
drift(X).  The zero state: with the closed form c is b1 at X = 0, so both
exponential schemes keep X = 0 at exactly 0, and alive, when b0 = 0 (the
SDE's own absorbing state, where b(0) = 0 and sigma 0^a = 0); exp-es steps
it to b0 dt.  A drift(x) model's c is 0/0 = NaN there, and the path
diverges.

All power evaluations use IEEE semantics: np.power, or np.sqrt when
alpha = 1.5, which costs half as much.  Both round x^0.5 correctly; a C
pow(x, 0.5) differs from sqrt only at -0 (the sign of the zero) and -inf
(+inf where sqrt gives NaN), states that stay alive and dead either way.
Fractional powers of a negative state are NaN and the trajectory counts as
diverged.  A state is alive when |value| <= DIVERGENCE_CAP, one comparison
that is false for NaN and +-inf; alive is that test, and the only
divergence test.

step_values updates an array of states; step updates one state by running
the same kernel on a one-element array, so a single state stepped
scalar-wise reproduces the corresponding element of a vectorized update bit
for bit.  Whole paths are stepped by montecarlo.simulate_paths.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .models import drift_eval

__all__ = ["SchemeKind", "DIVERGENCE_CAP", "alive", "step", "step_values"]

DIVERGENCE_CAP = 1e12


class SchemeKind(enum.Enum):
    ExpES = "exp-es"
    ExplicitExpEuler = "explicit-exp-euler"
    SES = "ses"
    SMS = "sms"
    SMSHalf = "sms-half"
    TES = "tes"
    STES = "stes"

    @classmethod
    def from_id(cls, name: str) -> "SchemeKind":
        name = name.strip().lower()
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(
            f"unknown scheme {name!r}; choose from "
            + ", ".join(k.value for k in cls)
        )


# ---------------------------------------------------------------- kernels
#
# Each kernel receives xa1 = x^(alpha-1), the one power of the step, as a
# new array it may overwrite; x, dw and the drift's value are never written.

def _exp_kernel(model, x, xa1, dt, dw, shift_b0):
    """Shared exponential update.  With shift_b0 the exponent uses
    (b(X) - b(0))/X and the additive b(0)dt term is appended; without it
    this is the plain explicit exponential scheme, whose b(X)/X adds b(0)/X.
    When b(0) = 0 the two are bitwise identical.

    The operations and their order are those of
        b(0)dt + x exp((sigma xa1) dw + c dt),  c = (b - b(0))/x - (sigma^2/2) xa1^2,
    c as drift_eval gives it.  A zero b(0) is still added, since 0 + v is
    not v for v = -0 (a negative state whose exponential underflows)."""
    b0 = model.b_at_zero
    coef = drift_eval(model, x, xa1, ito=0.5 * model.sigma * model.sigma)
    if not shift_b0 and b0 != 0.0:
        np.add(coef, np.divide(b0, x), out=coef)
    np.multiply(coef, dt, out=coef)
    out = xa1  # becomes the exponent, then the result
    np.multiply(model.sigma, out, out=out)
    np.multiply(out, dw, out=out)
    np.add(out, coef, out=out)
    np.exp(out, out=out)
    np.multiply(x, out, out=out)
    if shift_b0:
        np.add(b0 * dt, out, out=out)
    return out


def _ses_kernel(model, x, xa1, dt, dw, milstein=None):
    """SES, or with milstein a factor the Milstein correction coefficient
    alpha*sigma^2 is scaled by (1.0 for sms, 0.5 for sms-half)."""
    b = drift_eval(model, x, xa1)
    xa = x * xa1
    inner = x + b * dt + model.sigma * xa * dw
    if milstein is not None:
        coeff = (model.alpha * model.sigma * model.sigma) * milstein
        inner = inner + coeff * (xa * xa1) * (dw * dw - dt)
    return np.abs(inner, out=inner)


def _tes_kernel(model, x, xa1, dt, dw):
    d = drift_eval(model, x, xa1)
    return x + d * dt / (1.0 + np.abs(d) * dt) + model.sigma * (x * xa1) * dw


def _stes_kernel(model, x, xa1, dt, dw):
    inc = drift_eval(model, x, xa1) * dt + model.sigma * (x * xa1) * dw
    threshold = math.exp(math.sqrt(abs(math.log(dt))))
    keep = np.abs(x) < threshold
    return x + np.where(keep, inc / (1.0 + inc * inc), 0.0)


_KERNELS = {
    SchemeKind.ExpES: functools.partial(_exp_kernel, shift_b0=True),
    SchemeKind.ExplicitExpEuler: functools.partial(_exp_kernel, shift_b0=False),
    SchemeKind.SES: _ses_kernel,
    SchemeKind.SMS: functools.partial(_ses_kernel, milstein=1.0),
    SchemeKind.SMSHalf: functools.partial(_ses_kernel, milstein=0.5),
    SchemeKind.TES: _tes_kernel,
    SchemeKind.STES: _stes_kernel,
}


def alive(values):
    """True where a state has not diverged: |value| <= DIVERGENCE_CAP, which
    is false for NaN and +-inf (elementwise for arrays)."""
    return np.abs(values) <= DIVERGENCE_CAP


def step_values(kind: SchemeKind, model, x, dt, dw):
    """Apply one update of the chosen scheme to an ndarray of states (one
    state goes through step).  The result is a new array."""
    try:
        kernel = _KERNELS[kind]
    except KeyError:
        raise ValueError(f"unhandled scheme kind {kind!r}") from None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xa1 = np.sqrt(x) if model.alpha == 1.5 else np.power(x, model.alpha - 1.0)
        return kernel(model, x, xa1, dt, dw)


# ------------------------------------------------------------- scalar step

def step(kind: SchemeKind, model, x: float, dt: float, dw: float) -> float:
    """One update of the chosen scheme from the single state x.

    Runs the array kernel on one element, so the result equals the matching
    element of step_values bit for bit.  Raises ValueError for dt <= 0, a
    non-finite dw, a diverged x (see alive) and, for the two exponential
    schemes, an x that is not positive.  The result may itself be diverged;
    test it with alive.

    exp-es exceeds b(0)*dt for any finite increment.  sms uses the
    correction coefficient alpha*sigma^2 (the form the benchmark tables were
    produced with); sms-half uses the textbook alpha*sigma^2/2.
    tes divides the drift update by 1 + |b(X)| dt; stes tames the whole
    increment by 1 + inc^2 and gates it by |X| < exp(sqrt|ln dt|).
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not math.isfinite(dw):
        raise ValueError(f"dw must be finite, got {dw}")
    if not alive(x):
        raise ValueError(f"cannot step a diverged state, got {x}")
    if kind in (SchemeKind.ExpES, SchemeKind.ExplicitExpEuler) and not x > 0.0:
        raise ValueError(f"scheme requires a positive state, got {x}")
    out = step_values(kind, model, np.full(1, x, dtype=np.float64), dt,
                      np.full(1, dw, dtype=np.float64))
    return float(out[0])
