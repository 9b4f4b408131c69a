"""Reference values for E[f(X_T)].

The workhorse is a fine-grid Monte Carlo oracle (exponential scheme at a
deep refinement level, deterministic in its seed and cacheable on disk).
For the zero-intercept prototype model, chi_square_moment gives E[X_T^q]
in closed form, by adaptive quadrature, from the law of the power
transform of the state (a scaled noncentral chi-square); it is the
diagnostic oracle.  The published moment integrals (analytic_first_moment,
analytic_second_moment) carry an explicit convergence guard: for every
catalog case their (1-r) endpoint exponent is a large negative number and
the integral diverges, and where they converge they disagree with that law.
"""

from __future__ import annotations

import enum
import hashlib
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .models import PrototypeModel
from .montecarlo import estimate_many, resolve_test_function
from .schemes import SchemeKind

__all__ = [
    "ReferenceMethod",
    "ReferenceValue",
    "DivergentIntegralError",
    "QuadratureNotConverged",
    "UnreliableReferenceError",
    "gamma_function",
    "adaptive_quadrature",
    "analytic_first_moment",
    "analytic_second_moment",
    "chi_square_moment",
    "fine_grid_reference",
    "default_cache_dir",
]

DEFAULT_N0 = 10 ** 6
DEFAULT_P_REF = 12
DEFAULT_QUAD_TOL = 1e-10
CACHE_ENV_VAR = "EXPSDE_CACHE_DIR"
CACHE_FILENAME = "references.txt"
MAX_REF_DIVERGED_FRACTION = 1e-3
# Version of every simulated number (stream keys and draws, scheme kernels,
# engine).  It is part of the cache key, so a change that moves any
# simulated value bumps it and no reference the old numerics produced is
# served.
NUMERICS_VERSION = 4


class ReferenceMethod(enum.Enum):
    AnalyticIntegral = "analytic-integral"
    FineGridMC = "fine-grid-mc"


@dataclass(frozen=True)
class ReferenceValue:
    value: float
    method: ReferenceMethod
    uncertainty: float  # stderr for MC, quadrature error bound for analytic
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.uncertainty >= 0.0:
            raise ValueError(f"uncertainty must be >= 0, got {self.uncertainty}")


class DivergentIntegralError(ValueError):
    """The closed-form moment integral does not converge for this model."""


class QuadratureNotConverged(RuntimeError):
    """Quadrature could not reach the requested tolerance.

    Carries the best estimate anyway (attributes value, error_bound)."""

    def __init__(self, value: float, error_bound: float, tol: float):
        super().__init__(
            f"quadrature not converged: error bound {error_bound:.3g} "
            f"exceeds tol {tol:.3g} (best estimate {value!r})"
        )
        self.value = value
        self.error_bound = error_bound


class UnreliableReferenceError(RuntimeError):
    """Too many diverged trajectories for a trustworthy reference of one
    test function: fine_grid_reference raises it for a single f and returns
    it in that entry's place for a sequence."""


def gamma_function(x: float) -> float:
    """Gamma(x) for x > 0 (relative error well below 1e-12)."""
    if not x > 0.0:
        raise ValueError(f"gamma_function needs x > 0, got {x}")
    return math.gamma(x)


def adaptive_quadrature(smooth, tol: float = DEFAULT_QUAD_TOL,
                        c0: float = 0.0, c1: float = 0.0):
    """Integral over (0, 1) of r^c0 * (1-r)^c1 * smooth(r), to absolute
    tolerance tol.

    The endpoint exponents c0 and c1 must exceed -1.  A negative exponent
    marks an integrable singularity; that half is handled by the
    substitution r = u^(1/(1+c0)) (mirrored near 1), under which the
    singular weight is absorbed exactly: r^c0 dr = (1/(1+c0)) du.  Taking
    the weight separately instead of inside an opaque integrand matters
    numerically: for c1 close to -1, 1 - v^k rounds to exactly 1.0 near
    v = 0 and re-extracting the factor (1-r)^c1 from that would evaluate
    at the pole.  Nonnegative exponents need no substitution (and
    transforming a large positive one would squash the interval onto a
    denormal scale), so those halves integrate in r directly.  The split
    point is 1/2.

    Returns (value, error_bound).  Raises QuadratureNotConverged when the
    summed error estimate exceeds tol.
    """
    if not (c0 > -1.0 and c1 > -1.0):
        raise ValueError(
            f"endpoint exponents must exceed -1 for integrability, got ({c0}, {c1})"
        )

    def full(r):
        return r ** c0 * (1.0 - r) ** c1 * smooth(r)

    pieces = []
    if c0 < 0.0:
        k = 1.0 / (1.0 + c0)

        def lower(u, _k=k):
            rr = u ** _k
            return _k * (1.0 - rr) ** c1 * smooth(rr)

        pieces.append((lower, 0.0, 0.5 ** (1.0 + c0)))
    else:
        pieces.append((full, 0.0, 0.5))
    if c1 < 0.0:
        k1 = 1.0 / (1.0 + c1)

        def upper(v, _k=k1):
            rr = 1.0 - v ** _k
            return _k * rr ** c0 * smooth(rr)

        pieces.append((upper, 0.0, 0.5 ** (1.0 + c1)))
    else:
        pieces.append((full, 0.5, 1.0))
    # imported here so that the package loads without scipy, as does every
    # worker, which imports it afresh where workers are spawned
    from scipy import integrate

    total = 0.0
    bound = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for func, lo, hi in pieces:
            val, err = integrate.quad(func, lo, hi, epsabs=0.5 * tol,
                                      epsrel=0.0, limit=200)
            total += val
            bound += err
    if bound > tol:
        raise QuadratureNotConverged(total, bound, tol)
    return total, bound


# ----------------------------------------------------- closed-form moments

def _require_zero_intercept(model, need_unit_setup):
    if not isinstance(model, PrototypeModel):
        raise TypeError("closed-form moments are defined for PrototypeModel only")
    if model.b0 != 0.0 or model.b1 != 0.0:
        raise ValueError("closed-form moments require b0 = b1 = 0")
    if need_unit_setup and (model.x0 != 1.0 or model.horizon != 1.0):
        raise ValueError("this formula is specialized to x0 = 1, horizon = 1")


def _published_moment(model, tol, moment, r_power, c1, base):
    """E[X_T^moment] from a published closed-form integral: with
    m = alpha - 1, the value is base^(1/(1-alpha)) / Gamma(r_power) times
    the integral over (0,1) of

        r^(r_power - 1) * (1-r)^c1 * exp(-r / (2 sigma^2 m^2)).

    Raises DivergentIntegralError when c1 <= -1."""
    if c1 <= -1.0:
        order = ("first", "second")[moment - 1]
        raise DivergentIntegralError(
            f"divergent integral: (1-r) exponent {c1:.6g} <= -1 "
            f"({order} moment); use fine_grid_reference"
        )
    m = model.alpha - 1.0
    s2 = model.sigma * model.sigma
    rate = 1.0 / (2.0 * s2 * m * m)
    raw, err = adaptive_quadrature(lambda r: math.exp(-rate * r),
                                   tol=tol, c0=r_power - 1.0, c1=c1)
    pref = base ** (1.0 / (1.0 - model.alpha))
    pref /= gamma_function(r_power)
    meta = {"tol": tol, "moment": moment}
    return ReferenceValue(pref * raw, ReferenceMethod.AnalyticIntegral,
                          pref * err, meta)


def analytic_first_moment(model: PrototypeModel,
                          tol: float = DEFAULT_QUAD_TOL) -> ReferenceValue:
    """E[X_T] from the closed-form integral, as published.

    value = (4 sigma (alpha-1))^(1/(1-alpha)) / Gamma(1/(2 alpha - 2)) times
    the integral over (0,1) of

        r^(1/(2(alpha-1)) - 1) * (1-r)^(-B2/(sigma^2 (alpha-1)))
          * exp(-r / (2 sigma^2 (alpha-1)^2)).

    The (1-r) exponent is <= -1 for every catalog case, in which case this
    raises DivergentIntegralError.  Where the integral converges, its value
    disagrees with the law of X_T (0.3164 against 0.5765 for b2 = 0.4,
    sigma = 1, alpha = 2); chi_square_moment gives E[X_T] from that law.
    """
    _require_zero_intercept(model, need_unit_setup=True)
    m = model.alpha - 1.0
    s2 = model.sigma * model.sigma
    return _published_moment(model, tol, 1, 1.0 / (2.0 * m),
                             -model.b2 / (s2 * m), 4.0 * model.sigma * m)


def analytic_second_moment(model: PrototypeModel,
                           tol: float = DEFAULT_QUAD_TOL) -> ReferenceValue:
    """E[X_T^2] from the closed-form integral, as published.

    Same structure as analytic_first_moment with prefactor
    (2 sigma^2 (alpha-1)^2)^(1/(1-alpha)) / Gamma(1/(alpha-1)), r exponent
    1/(alpha-1) - 1 and (1-r) exponent -(sigma^2 + 2 B2)/(2 sigma^2 (alpha-1)).
    Raises DivergentIntegralError when that exponent is <= -1 (every
    catalog case).  Where the integral converges, its value disagrees with
    the law of X_T; chi_square_moment(model, 2) gives E[X_T^2] from it.
    """
    _require_zero_intercept(model, need_unit_setup=True)
    m = model.alpha - 1.0
    s2 = model.sigma * model.sigma
    return _published_moment(model, tol, 2, 1.0 / m,
                             -(s2 + 2.0 * model.b2) / (2.0 * s2 * m),
                             2.0 * s2 * m * m)


def chi_square_moment(model: PrototypeModel, order: float,
                      tol: float = DEFAULT_QUAD_TOL) -> ReferenceValue:
    """E[X_T^order] via the noncentral chi-square law of X^(2(1-alpha)).

    For b0 = b1 = 0 the power transform Y = X^(2(1-alpha)) is a constant-
    drift square-root diffusion, so Y_T is a scaled noncentral chi-square
    with dof = 2 B2/(m sigma^2) + (2m+1)/m and noncentrality
    x0^(-2m)/(m^2 sigma^2 T), where m = alpha - 1.  Writing q = order/(2m),
    the inverse-moment identity for that law gives

        E[X_T^order] = (2 m^2 sigma^2 T)^(-q) / Gamma(q)
            * integral over (0,1) of r^(q-1) (1-r)^(dof/2 - q - 1)
              exp(-noncentrality * r / 2) dr,

    finite iff order < 2 B2/sigma^2 + 2 alpha - 1.  This derivation is
    independent of the published integrals and converges for every catalog
    case; it serves as the diagnostic oracle for them.  tol is an absolute
    tolerance on the returned value, whose uncertainty is the quadrature's
    error bound.
    """
    _require_zero_intercept(model, need_unit_setup=False)
    if not order > 0.0:
        raise ValueError(f"moment order must be positive, got {order}")
    m = model.alpha - 1.0
    s2 = model.sigma * model.sigma
    q = order / (2.0 * m)
    dof = 2.0 * model.b2 / (m * s2) + (2.0 * m + 1.0) / m
    c1 = 0.5 * dof - q - 1.0
    if c1 <= -1.0:
        raise DivergentIntegralError(
            f"moment of order {order} is infinite: needs order < "
            f"2*B2/sigma^2 + 2*alpha - 1 = {2.0 * model.b2 / s2 + 2.0 * model.alpha - 1.0:.6g}"
        )
    scale = m * m * s2 * model.horizon
    lam = model.x0 ** (-2.0 * m) / scale
    c0 = q - 1.0
    pref = (2.0 * scale) ** (-q) / gamma_function(q)
    # tol bounds the error of the returned value pref * raw, so the raw
    # integral needs tol / pref (pref is about 7e10 on case6, order 2)
    raw, err = adaptive_quadrature(lambda r: math.exp(-0.5 * lam * r),
                                   tol=tol / pref, c0=c0, c1=c1)
    meta = {"tol": tol, "moment": order, "law": "noncentral-chi-square"}
    return ReferenceValue(pref * raw, ReferenceMethod.AnalyticIntegral,
                          pref * err, meta)


# ------------------------------------------------------ fine-grid MC oracle

def default_cache_dir() -> Optional[Path]:
    path = os.environ.get(CACHE_ENV_VAR)
    return Path(path) if path else None


def _cache_key(model: PrototypeModel, f_id: str, n0: int, p_ref: int, seed: int) -> str:
    fields = (model.b0, model.b1, model.b2, model.sigma, model.alpha,
              model.x0, model.horizon)
    blob = "|".join(repr(v) for v in fields)
    blob += f"|{f_id}|fine-grid-mc|{n0}|{p_ref}|{seed}|numerics-{NUMERICS_VERSION}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_lookup(path: Path, key: str):
    try:
        data = path.read_bytes()
    except OSError:
        return None
    hit = None
    # the last piece has no newline unless the file is complete: a record
    # cut short by an interrupted write is never served
    for line in data.split(b"\n")[:-1]:
        try:
            # a line that is not UTF-8 raises UnicodeDecodeError, a ValueError
            name, value, uncertainty = line.decode().split()
            value, uncertainty = float(value), float(uncertainty)
        except ValueError:
            continue
        if name == key and uncertainty >= 0.0:
            hit = (value, uncertainty)
    return hit


def _cache_store(path: Path, key: str, value: float, uncertainty: float):
    path.parent.mkdir(parents=True, exist_ok=True)
    record = f"{key} {value!r} {uncertainty!r}\n".encode()
    with open(path, "ab+") as fh:
        fh.seek(0)
        data = fh.read()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            # drop a record cut short by an interrupted write; ended by a
            # later newline it would parse as a record of its own
            fh.truncate(complete)
        fh.write(record)


def fine_grid_reference(model, f, n0: int = DEFAULT_N0,
                        p_ref: int = DEFAULT_P_REF, seed: int = 0,
                        workers: int = 1, cache_dir=None,
                        use_cache: bool = True):
    """Monte Carlo reference: mean of f over n0 exponential-scheme terminals
    at refinement level p_ref, stderr as uncertainty.

    f is one test function (a name or a callable), giving one
    ReferenceValue, or a nonempty sequence of them, giving a list with one
    per entry, each equal to the value f alone gives: the terminals do not
    depend on f, so every entry the cache does not hold is computed from
    one shared ensemble.

    Deterministic in (model, f, n0, p_ref, seed) regardless of worker
    count.  More than 0.1% diverged trajectories (for an f, counting its
    non-finite values) make an entry unreliable: a single f raises its
    UnreliableReferenceError, and a sequence holds that error in the
    entry's place.  Results for named test functions are cached on disk
    under cache_dir (default: $EXPSDE_CACHE_DIR if set), one record per
    reliable (model, f) keyed by the full parameter tuple; a cache hit
    skips the simulation entirely.
    """
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    if p_ref < 1:
        raise ValueError(f"p_ref must be >= 1, got {p_ref}")
    single = isinstance(f, str) or callable(f)
    fs = [f] if single else list(f)
    if not fs:
        raise ValueError("need at least one test function")
    for fi in fs:
        resolve_test_function(fi)
    cdir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cached = use_cache and cdir is not None and isinstance(model, PrototypeModel)
    keys = [_cache_key(model, fi, n0, p_ref, seed)
            if cached and isinstance(fi, str) else None for fi in fs]

    def reference_value(value, uncertainty):
        meta = {"n0": n0, "p_ref": p_ref, "seed": seed,
                "scheme": SchemeKind.ExpES.value}
        return ReferenceValue(value, ReferenceMethod.FineGridMC, uncertainty, meta)

    refs = []
    for key in keys:
        hit = None if key is None else _cache_lookup(cdir / CACHE_FILENAME, key)
        refs.append(None if hit is None else reference_value(*hit))
    misses = [i for i, ref in enumerate(refs) if ref is None]
    if misses:
        ests = estimate_many(model, SchemeKind.ExpES, [fs[i] for i in misses],
                             p=p_ref, n=n0, seed=seed, workers=workers)
        for i, est in zip(misses, ests):
            if est.n_diverged > MAX_REF_DIVERGED_FRACTION * est.n_requested:
                refs[i] = UnreliableReferenceError(
                    f"{est.n_diverged} of {est.n_requested} reference trajectories "
                    f"diverged (> {MAX_REF_DIVERGED_FRACTION:.1%}); reference untrustworthy"
                )
                continue
            refs[i] = reference_value(est.mean, est.stderr)
            # a repeated f was stored at its first entry
            if keys[i] is not None and keys[i] not in keys[:i]:
                _cache_store(cdir / CACHE_FILENAME, keys[i], est.mean, est.stderr)
    if single and isinstance(refs[0], UnreliableReferenceError):
        raise refs[0]
    return refs[0] if single else refs
