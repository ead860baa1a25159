"""The overflow policy at the edge of the double range.

A quantity is out of range exactly when it is not a finite double.  Every
function below that can meet the edge either returns a finite value or
raises ExponentOverflowError: never inf or NaN, never the builtin
OverflowError of `math.exp` or `**`, and never a numpy warning.  The log
values of the quantities are drawn from [700, 720], across e^709.78, the
largest double.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fvptrunc import (BoundInputs, EigenModel, ExponentOverflowError, SpectralField,
                      illposed_pair, mode_coefficient, mode_roots, noise_bound, total_bound,
                      truncation_bound)
from fvptrunc.spectral import exp_checked
from oracle import apply_spectral_growth, gronwall_bound, gronwall_comparison_solution

LOGS = st.floats(min_value=700.0, max_value=720.0)
#: decimal exponents of factors multiplied onto a growth e^x
SCALES = st.floats(min_value=-12.0, max_value=12.0)

MODEL = EigenModel.dirichlet_1d(4)
PI2 = math.pi ** 2


def finite_or_range_error(fn, *args):
    """fn(*args) with every warning an error: its value, checked to be
    finite, or None where it raised ExponentOverflowError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = fn(*args)
        except ExponentOverflowError:
            return None
    assert np.all(np.isfinite(value)), value
    return value


@given(LOGS)
@example(709.5)
def test_exp_checked(x):
    value = finite_or_range_error(exp_checked, x, "quantity")
    try:
        want = math.exp(x)
    except OverflowError:
        assert value is None
    else:  # every representable value comes back, e^709.5 ~ 1.35e308 too
        assert value == want


@given(LOGS, SCALES)
@example(708.0, 10.0)     # e^708 is finite; its product with 1e10 is not
@example(715.0, -10.0)    # e^715 is not; the checked value is the product's
def test_gronwall_bound(x, scale):
    c0 = 10.0 ** scale
    value = finite_or_range_error(gronwall_bound, c0, x - 1.0, 0.0, 1.0)
    if value is not None:
        assert value == c0 * math.exp(x)


def bound_inputs(log_truncation: float, log_noise: float) -> BoundInputs:
    """Level 1, t = 0, tau = 1, q = 1e-3 and kappa = 25 (kappa1 = 26), with
    rho and delta set so that the log bounds are the given values."""
    q, kappa1 = 1e-3, 26.0
    return BoundInputs(model=MODEL, level=1, t=0.0, tau=1.0,
                       delta=math.exp(log_noise - PI2 - kappa1),
                       rho=math.exp(log_truncation - kappa1 + q * PI2),
                       kappa=kappa1 - 1.0, regime="gevrey_q", q=q)


@given(LOGS, LOGS)
# each term is ~1.35e308, their sum is not a double
@example(709.5, 709.5)
def test_bounds(log_truncation, log_noise):
    b = bound_inputs(log_truncation, log_noise)
    trunc = finite_or_range_error(truncation_bound, b)
    noise = finite_or_range_error(noise_bound, b)
    total = finite_or_range_error(total_bound, b)
    if total is not None:
        assert total == trunc + noise
    elif trunc is not None and noise is not None:
        assert trunc + noise == math.inf


@given(LOGS, SCALES, st.booleans())
@example(710.0, 0.0, False)   # zero coefficients under overflowing factors
def test_apply_spectral_growth(x, scale, top_mode):
    # modes 2 and 3 hold +0.0 and -0.0; the growth of mode 4 (or, without
    # data there, of mode 3) at t is e^x
    coeffs = [1.0, 0.0, -0.0, 10.0 ** scale if top_mode else 0.0]
    t = x / MODEL.eigenvalue(4 if top_mode else 3)
    out = finite_or_range_error(
        lambda: apply_spectral_growth(t, SpectralField(MODEL, coeffs), 4).coeffs)
    if out is not None:
        # a zero coefficient stays a zero of its sign, however large its factor
        assert [math.copysign(1.0, c) for c in out[1:3]] == [1.0, -1.0]
        assert out[1] == out[2] == 0.0
    if not top_mode:  # the growth of mode 1 stays far inside the range
        assert out is not None and out[3] == 0.0


@given(LOGS)
def test_mode_coefficient(x):
    # c = 0 and lambda = x: |beta| ~ x, so u(0) ~ e^x
    roots = mode_roots(x, 0.0)
    finite_or_range_error(mode_coefficient, roots, 1.0, np.array([0.0, 0.5, 1.0]))


@given(LOGS, st.integers(1, 4))
def test_illposed_lower_bound(x, n):
    beta = abs(mode_roots(MODEL.eigenvalue(n), 1.0).beta)
    pair = illposed_pair(MODEL, n, x / beta)  # e^{|beta| tau} = e^x
    finite_or_range_error(pair.lower_bound, np.array([0.0, 0.5 * pair.tau]))


@given(LOGS, SCALES)
def test_gronwall_comparison_solution(x, scale):
    r1 = 0.5 * (1.0 + math.sqrt(5.0))  # the growth rate at c1 = 1
    finite_or_range_error(gronwall_comparison_solution, 10.0 ** scale, 1.0, x / r1, 8)


def test_total_bound_past_the_range_raises():
    b = bound_inputs(709.5, 709.5)
    assert math.isfinite(truncation_bound(b)) and math.isfinite(noise_bound(b))
    with pytest.raises(ExponentOverflowError, match="total bound"):
        total_bound(b)
