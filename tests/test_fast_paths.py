"""The vectorised hot loops against the loop-level formulas they replaced.

scaled_norm_rows takes an unscaled path for rows of moderate norm,
sup_row_norm takes the largest of them in one pass, the certified rho is
one row-wise log-sum-exp pass, the order-6 interval integrals are a
6-tap correlation plus four edge rows, and the exponential-kernel
recurrence is one banded triangular solve.  Each is held here to an
independent reference kept in this file.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvptrunc import (ConfigError, EigenModel, ExponentOverflowError, GevreyParams,
                      SpectralField, TimeGrid, Trajectory, closed_form_solution, gevrey_norm)
from fvptrunc.harness import RHO_SAFETY, _certified_rho
from fvptrunc.quadrature import (_interval_integrals, _pl_interval_weights, exp_kernel_profile,
                                 lagrange_exp_weights)
from fvptrunc.reference import ReferenceSolution
from fvptrunc.spectral import FAST_NORM_MAX, FAST_NORM_MIN, scaled_norm_rows, sup_row_norm


# --------------------------------------------------------------------------
# scaled_norm_rows

def row_max_scaled(a: np.ndarray) -> np.ndarray:
    """The always-scaled formula: row max times the norm of the scaled row."""
    row_max = np.max(np.abs(a), axis=1)
    safe = np.where(row_max[:, None] > 0.0, row_max[:, None], 1.0)
    return row_max * np.linalg.norm(a / safe, axis=1)


def fsum_norm(row) -> float:
    """Row-max-scaled norm with an exactly rounded sum of squares."""
    m = max(abs(x) for x in row)
    if m == 0.0:
        return 0.0
    return m * math.sqrt(math.fsum((x / m) ** 2 for x in row))


def scaled_rows(width: int):
    """Rows of `width` entries: a decade in [-300, 300] times mantissas of
    magnitude 1e-3..10 or zero, so every nonzero entry is a normal double."""
    mantissa = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
    return st.tuples(st.integers(-300, 300), st.lists(mantissa, min_size=width, max_size=width)) \
        .map(lambda em: [x * 10.0 ** em[0] for x in em[1]])


@st.composite
def row_arrays(draw):
    width = draw(st.integers(1, 12))
    rows = draw(st.lists(scaled_rows(width), min_size=1, max_size=20))
    return np.array(rows)


class TestScaledNormRows:
    @settings(max_examples=300, deadline=None)
    @given(row_arrays())
    def test_matches_row_max_scaled_formula(self, a):
        got = scaled_norm_rows(a)
        for value, row in zip(got, a):
            want = fsum_norm(row)
            assert abs(value - want) <= 1e-15 * want

    @settings(max_examples=100, deadline=None)
    @given(row_arrays())
    def test_rows_outside_fast_range_take_the_scaled_formula(self, a):
        got = scaled_norm_rows(a)
        plain = np.sqrt(np.einsum("ij,ij->i", a, a))
        slow = ~((plain >= FAST_NORM_MIN) & (plain <= FAST_NORM_MAX))
        assert np.array_equal(got[slow], row_max_scaled(a[slow]))

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1.0])
    def test_extreme_rows(self, scale):
        rng = np.random.default_rng(3)
        a = scale * rng.standard_normal((6, 12))
        got = scaled_norm_rows(a)
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        for value, row in zip(got, a):
            assert abs(value - fsum_norm(row)) <= 1e-15 * fsum_norm(row)

    def test_zero_rows(self):
        assert np.array_equal(scaled_norm_rows(np.zeros((3, 5))), np.zeros(3))
        assert scaled_norm_rows(np.zeros(4))[0] == 0.0

    def test_mixed_rows_in_one_array(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 8))
        a[0] *= 1e200
        a[1] *= 1e-170
        a[2] = 0.0
        a[3, :4] = [1e200, 1e-170, 0.0, -3e199]
        got = scaled_norm_rows(a)
        for value, row in zip(got, a):
            assert abs(value - fsum_norm(row)) <= 1e-15 * fsum_norm(row)
        assert got[2] == 0.0

    def test_nan_row_stays_nan_and_does_not_spoil_others(self):
        a = np.array([[1.0, np.nan], [3.0, 4.0]])
        got = scaled_norm_rows(a)
        assert math.isnan(got[0]) and got[1] == 5.0


# --------------------------------------------------------------------------
# sup_row_norm

def with_entry(row: list, k: int, value: float) -> list:
    row = list(row)
    row[k] = value
    return row


@st.composite
def sup_arrays(draw):
    """Arrays mixing decade-scaled rows, rows at the edges of the fast range
    and far outside it, zero rows, and rows holding an inf or a NaN."""
    width = draw(st.integers(1, 12))
    mantissas = st.lists(st.floats(-10.0, 10.0), min_size=width, max_size=width)
    near_edges = st.tuples(st.sampled_from([1e200, 1e140, 1e-140, 2e-140, 1e-170]), mantissas) \
        .map(lambda sm: [sm[0] * x for x in sm[1]])
    special = st.tuples(scaled_rows(width), st.integers(0, width - 1),
                        st.sampled_from([math.inf, -math.inf, math.nan])) \
        .map(lambda r: with_entry(*r))
    row = st.one_of(scaled_rows(width), near_edges, st.just([0.0] * width), special)
    return np.array(draw(st.lists(row, min_size=1, max_size=20)))


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestSupRowNorm:
    @settings(max_examples=300, deadline=None)
    @given(sup_arrays())
    @example(np.array([[3.0, 4.0]]))                  # a single row
    @example(np.array([[1e200], [0.0], [-1e-170]]))   # a single column
    # the second row's plain norm rounds under FAST_NORM_MIN and its scaled
    # norm over the first row's: the case the doubled lower limit is for
    @example(np.array([[1e-140, 0.0, 0.0],
                       [6.55089397473976e-141, 4.5885451350623376e-141, 6.002586248877566e-141]]))
    def test_equals_max_of_scaled_norm_rows_bit_for_bit(self, a):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN rows
            assert bits(sup_row_norm(a)) == bits(scaled_norm_rows(a).max())

    def test_one_dimensional_input_is_one_row(self):
        assert sup_row_norm(np.array([3.0, 4.0])) == 5.0


# --------------------------------------------------------------------------
# certified rho

def fsum_rho(reference: ReferenceSolution, gp: GevreyParams) -> float:
    """RHO_SAFETY * max over rows of the Gevrey norm, one row at a time,
    with the log-domain terms summed by math.fsum."""
    lam = reference.trajectory.model.lambdas
    worst = -math.inf
    for row in reference.trajectory.states:
        logs = [2.0 * gp.p * math.log(l) + 2.0 * gp.q * l + 2.0 * math.log(abs(c))
                for l, c in zip(lam, row) if c != 0.0]
        if logs:
            top = max(logs)
            worst = max(worst, 0.5 * (top + math.log(math.fsum(math.exp(t - top) for t in logs))))
    return RHO_SAFETY * math.exp(worst)


def per_row_rho(reference: ReferenceSolution, gp: GevreyParams) -> float:
    """The loop the one-pass rho replaced: one gevrey_norm per grid point."""
    traj = reference.trajectory
    return RHO_SAFETY * max(gevrey_norm(traj.state(i), gp)
                            for i in range(traj.grid.n_steps + 1))


def synthetic_reference(states: np.ndarray, tau: float = 0.5) -> ReferenceSolution:
    model = EigenModel.dirichlet_1d(states.shape[1])
    grid = TimeGrid(tau, states.shape[0] - 1)
    return ReferenceSolution(Trajectory(grid, model, states),
                             SpectralField(model, states[-1]), "self_convergent")


class TestCertifiedRho:
    def test_closed_form_reference(self):
        model = EigenModel.dirichlet_1d(8)
        for mode, c in ((1, 1.0), (2, 0.0), (1, -0.5)):
            ref = closed_form_solution(model, mode, c, 1.0, TimeGrid(1.0, 400))
            for gp in (GevreyParams(0.0, 1.5), GevreyParams(1.0, 1.0)):
                assert _certified_rho(ref, gp) == pytest.approx(fsum_rho(ref, gp), rel=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_states_with_zero_columns_and_rows(self, seed):
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((65, 10)) * np.exp(rng.uniform(-5.0, 5.0, (65, 1)))
        states[:, [1, 4, 9]] = 0.0          # modes that are zero everywhere
        states[7] = 0.0                     # one all-zero grid point
        states[::5, 2] = 0.0                # a live mode that vanishes at some points
        ref = synthetic_reference(states)
        gp = GevreyParams(0.5, 0.05)
        got = _certified_rho(ref, gp)
        assert got == pytest.approx(fsum_rho(ref, gp), rel=1e-14)
        assert got == pytest.approx(per_row_rho(ref, gp), rel=1e-14)

    def test_all_zero_reference_rejected(self):
        ref = synthetic_reference(np.zeros((9, 4)))
        with pytest.raises(ConfigError):
            _certified_rho(ref, GevreyParams(0.0, 1.0))
        assert per_row_rho(ref, GevreyParams(0.0, 1.0)) == 0.0  # the old loop's test value

    def test_overflow_signalled_like_the_per_row_loop(self):
        states = np.zeros((9, 8))
        states[:, 0] = 1.0
        states[3, 7] = 1e-30                # one grid point whose norm overflows
        ref = synthetic_reference(states)
        gp = GevreyParams(0.0, 2.0)         # e^{2 q lambda_8} ~ e^{2527}
        with pytest.raises(ExponentOverflowError):
            per_row_rho(ref, gp)
        with pytest.raises(ExponentOverflowError):
            _certified_rho(ref, gp)


# --------------------------------------------------------------------------
# stencil quadrature

def gather_integrals(w: np.ndarray, h: float, z: float, order: int) -> tuple:
    """(integrals, summed magnitudes of their terms), all intervals, by a
    per-interval gather of stencil values and an einsum."""
    n = w.size - 1
    if order == 2:
        k = 2
        bases = np.arange(n)
        weights = np.tile(_pl_interval_weights(z), (n, 1))
    else:
        k = 6
        bases = np.clip(np.arange(n) - 2, 0, n + 1 - k)
        weights = np.array([lagrange_exp_weights(np.arange(b - i, b - i + k), z)
                            for i, b in enumerate(bases)])
    idx = bases[:, None] + np.arange(k)[None, :]
    products = weights * w[idx]
    return h * np.einsum("ik->i", products), h * np.sum(np.abs(products), axis=1)


@pytest.mark.parametrize("order", [2, 6])
@pytest.mark.parametrize("z", [0.0, 1e-3, 0.5, 30.0])
@pytest.mark.parametrize("n", [5, 6, 7, 8, 128, 4000])
def test_stencil_matches_gather(n, z, order):
    rng = np.random.default_rng(n)
    w = rng.standard_normal(n + 1)
    h = 1.0 / n
    want, scale = gather_integrals(w, h, z, order)
    got = _interval_integrals(w, h, z, order)
    assert got.shape == (n,)
    # relative to the summed magnitudes: the stencil sums may cancel
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_order6_needs_six_points():
    with pytest.raises(ValueError, match="at least 6 grid points"):
        _interval_integrals(np.ones(5), 0.25, 0.1, 6)


# --------------------------------------------------------------------------
# exponential-kernel recurrence

def recurrence_loop(w: np.ndarray, h: float, z: float, order: int) -> np.ndarray:
    """I_k = A_k + e^z I_{k+1} from I_n = 0, one rounded step at a time."""
    A = _interval_integrals(np.ascontiguousarray(w), h, z, order)
    E = math.exp(z)
    out = np.zeros(A.size + 1)
    acc = 0.0
    for k in range(A.size - 1, -1, -1):
        acc = float(A[k]) + E * acc
        out[k] = acc
    return out


def layouts(w: np.ndarray) -> list:
    """w as a contiguous array, a strided column and a reversed view."""
    strided = np.stack([w, -w], axis=1)[:, 0]
    reversed_view = w[::-1].copy()[::-1]
    assert strided.strides != w.strides and reversed_view.strides[0] < 0
    return [w, strided, reversed_view]


@pytest.mark.parametrize("z", [0.0, 1e-9, 1e-3, 0.5, 30.0, 699.0])
@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 128, 4096])
def test_kernel_profile_is_the_rounded_recurrence(n, z):
    """The banded solve reproduces the plain loop byte for byte.

    Two integrands: one of unit size everywhere (it overflows for large
    z n, and then both must report it) and one that decays like e^{-lam t},
    which keeps the order-2 profile finite up to z = 699 and whose
    underflowing tail gives some A_k = -0.0 (n = 4096, z = 0.5).
    """
    rng = np.random.default_rng(n)
    h = 1.0 / n
    lam = z / h
    dense = rng.standard_normal(n + 1)
    decaying = dense * np.exp(-z * np.arange(n + 1))
    for order in (2, 6) if n >= 5 else (2,):
        for w in (dense, decaying):
            want = recurrence_loop(w, h, lam * h, order)
            for view in layouts(w):
                if not np.all(np.isfinite(want)):
                    with pytest.raises(ExponentOverflowError):
                        exp_kernel_profile(lam, h, view, order)
                    continue
                got = exp_kernel_profile(lam, h, view, order)
                assert got.tobytes() == want.tobytes(), (order, view.strides)
