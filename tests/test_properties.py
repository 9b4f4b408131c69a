"""Property tests of the scalar step against the array kernels."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from expsde.cli import CASES
from expsde.models import GeneralDriftModel
from expsde.schemes import SchemeKind, alive, step, step_values

MODELS = list(CASES.values()) + [
    GeneralDriftModel(drift=lambda x: 0.5 + 0.2 * x - 1.5 * np.power(x, 3.0),
                      b_at_zero=0.5, sigma=0.3, alpha=2.0),
]

models = st.sampled_from(MODELS)
kinds = st.sampled_from(list(SchemeKind))
dts = st.floats(min_value=1e-6, max_value=1.0)
draws = st.floats(min_value=-5.0, max_value=5.0)
# on (0, 2] with |draw| <= 5 the positive part x*exp(...) of exp-es stays
# far above an ulp of b(0)*dt, so the strict floor cannot be lost to rounding
positive_states = st.floats(min_value=1e-3, max_value=2.0)
states = st.floats(min_value=-2.0, max_value=4.0)

fixed = settings(max_examples=300, derandomize=True, deadline=None)


@fixed
@given(kind=kinds, model=models, x=positive_states, dt=dts, z=draws,
       half=st.booleans(), size=st.integers(8, 64), where=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_scalar_step_is_one_element_of_the_kernel(kind, model, x, dt, z, half,
                                                  size, where, seed):
    # (x, dw) sits at a drawn index among random neighbours of a longer array
    rng = np.random.default_rng(seed)
    i = min(int(where * size), size - 1)
    xs = rng.uniform(1e-3, 2.0, size)
    dws = rng.uniform(-5.0, 5.0, size) * math.sqrt(dt)
    dw = z * math.sqrt(dt)
    xs[i], dws[i] = x, dw
    one = step(kind, model, x, dt, dw, milstein_half=half)
    vec = step_values(kind, model, xs, dt, dws, milstein_half=half)[i]
    assert one == vec or (math.isnan(one) and math.isnan(vec))


@fixed
@given(model=models, x=positive_states, dt=dts, z=draws)
def test_exp_es_stays_above_its_floor(model, x, dt, z):
    out = step(SchemeKind.ExpES, model, x, dt, z * math.sqrt(dt))
    if alive(out):
        assert out > model.b_at_zero * dt


@fixed
@given(kind=st.sampled_from([SchemeKind.SES, SchemeKind.SMS]), model=models,
       x=states, dt=dts, z=draws, half=st.booleans())
def test_symmetrized_schemes_are_nonnegative(kind, model, x, dt, z, half):
    out = step(kind, model, x, dt, z * math.sqrt(dt), milstein_half=half)
    assert math.isnan(out) or out >= 0.0
