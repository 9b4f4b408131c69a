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

The kernels read only alpha, sigma, b_at_zero and the vectorized drift of
the model (through drift_eval), so any model offering those runs.

All power evaluations use IEEE semantics (np.power): fractional powers of a
negative state are NaN and the trajectory counts as diverged.  A state is
alive when |value| <= DIVERGENCE_CAP, one comparison that is false for NaN
and +-inf; alive is that test, and the only divergence test.

step_values updates an array of states; step updates one state by running
the same kernel on a one-element array, so a single state stepped
scalar-wise reproduces the corresponding element of a vectorized update bit
for bit.  Whole paths are stepped by montecarlo.simulate_paths.
"""

from __future__ import annotations

import enum
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

def _exp_kernel(model, x, dt, dw, shift_b0):
    """Shared exponential update.  With shift_b0 the drift ratio uses
    b(X) - b(0) and the additive b(0)dt term is appended; without it this
    is the plain explicit exponential scheme.  When b(0) = 0 the two are
    bitwise identical.

    The operations and their order are those of
        b(0)dt + x exp(sigma xa1 dw + ((b - b(0))/x - (sigma^2/2) xa1 xa1) dt)
    with xa1 = x^(alpha-1), evaluated into three arrays the kernel
    allocates itself: x, dw and the drift's value (which may be x itself)
    are never written.  The first of them is returned.  A zero b(0) is not
    subtracted, since b - 0 is b exactly; it is still added, since 0 + v
    is not v for v = -0 (a negative state whose exponential underflows)."""
    b0 = model.b_at_zero
    half_s2 = 0.5 * model.sigma * model.sigma
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.power(x, model.alpha - 1.0)  # xa1, until it becomes expo
        correction = np.multiply(half_s2, out)
        np.multiply(correction, out, out=correction)
        np.multiply(model.sigma, out, out=out)
        np.multiply(out, dw, out=out)
        b = drift_eval(model, x)
        if shift_b0 and b0 != 0.0:
            ratio = np.subtract(b, b0)
            np.divide(ratio, x, out=ratio)
        else:
            ratio = np.divide(b, x)
        np.subtract(ratio, correction, out=ratio)
        np.multiply(ratio, dt, out=ratio)
        np.add(out, ratio, out=out)
        np.exp(out, out=out)
        np.multiply(x, out, out=out)
        if shift_b0:
            np.add(b0 * dt, out, out=out)
    return out


def _ses_kernel(model, x, dt, dw, milstein=None):
    """SES, or with milstein a factor the Milstein correction coefficient
    alpha*sigma^2 is scaled by (1.0 for sms, 0.5 for sms-half)."""
    with np.errstate(over="ignore", invalid="ignore"):
        inner = x + drift_eval(model, x) * dt + model.sigma * np.power(x, model.alpha) * dw
        if milstein is not None:
            coeff = (model.alpha * model.sigma * model.sigma) * milstein
            inner = inner + coeff * np.power(x, 2.0 * model.alpha - 1.0) * (dw * dw - dt)
        return np.abs(inner)


def _tes_kernel(model, x, dt, dw):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = drift_eval(model, x)
        return x + d * dt / (1.0 + np.abs(d) * dt) + model.sigma * np.power(x, model.alpha) * dw


def _stes_kernel(model, x, dt, dw):
    with np.errstate(over="ignore", invalid="ignore"):
        inc = drift_eval(model, x) * dt + model.sigma * np.power(x, model.alpha) * dw
        threshold = math.exp(math.sqrt(abs(math.log(dt))))
        keep = np.abs(x) < threshold
        return x + np.where(keep, inc / (1.0 + inc * inc), 0.0)


def alive(values):
    """True where a state has not diverged: |value| <= DIVERGENCE_CAP, which
    is false for NaN and +-inf (elementwise for arrays)."""
    return np.abs(values) <= DIVERGENCE_CAP


def step_values(kind: SchemeKind, model, x, dt, dw):
    """Apply one update of the chosen scheme to an ndarray of states (one
    state goes through step)."""
    if kind is SchemeKind.ExpES:
        return _exp_kernel(model, x, dt, dw, shift_b0=True)
    if kind is SchemeKind.ExplicitExpEuler:
        return _exp_kernel(model, x, dt, dw, shift_b0=False)
    if kind is SchemeKind.SES:
        return _ses_kernel(model, x, dt, dw)
    if kind is SchemeKind.SMS:
        return _ses_kernel(model, x, dt, dw, milstein=1.0)
    if kind is SchemeKind.SMSHalf:
        return _ses_kernel(model, x, dt, dw, milstein=0.5)
    if kind is SchemeKind.TES:
        return _tes_kernel(model, x, dt, dw)
    if kind is SchemeKind.STES:
        return _stes_kernel(model, x, dt, dw)
    raise ValueError(f"unhandled scheme kind {kind!r}")


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
