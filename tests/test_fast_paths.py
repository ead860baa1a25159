"""The vectorised hot loops against the loop-level formulas they replaced.

scaled_norm_rows takes an unscaled path for rows of moderate norm,
sup_over_time takes the largest of them in one pass, or max |x| on a
single row, the certified rho is one row-wise log-sum-exp
pass (numpy code following scipy's algorithm) and a single Gevrey norm
its one-row path,
the order-6 interval integrals are a 6-tap correlation plus four edge
rows, and the exponential-kernel recurrence is one banded triangular
solve.  Each is held here to an independent reference kept in this file.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvptrunc import (ConfigError, EigenModel, ExponentOverflowError, GevreyParams,
                      SpectralField, TimeGrid, Trajectory, closed_form_solution, gevrey_norm,
                      quadrature)
from fvptrunc.harness import RHO_SAFETY, _certified_rho
from fvptrunc.quadrature import (SCHEME_ORDER, QuadraturePlan, _interval_integrals,
                                 _interval_weight_table, _openblas_dtbsv, _scipy_dtbsv,
                                 backward_cumulative, exp_kernel_profile)
from fvptrunc.reference import ReferenceSolution
from fvptrunc.spectral import (FAST_NORM_MAX, FAST_NORM_MIN, _gevrey_weights, _row_logsumexp,
                               exp_checked, gevrey_log_norms, scaled_norm_rows,
                               sup_over_time)
from oracle import lagrange_exp_weights


# --------------------------------------------------------------------------
# scaled_norm_rows

def row_max_scaled(a: np.ndarray) -> np.ndarray:
    """The always-scaled formula: row max times the norm of the scaled row,
    its squares added left to right."""
    out = []
    for row in a:
        m = max(abs(x) for x in row)
        acc = 0.0
        for x in row:
            x = x / (m if m > 0.0 else 1.0)
            acc += x * x
        out.append(m * math.sqrt(acc))
    return np.array(out)


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
# sup_over_time on many rows (a's rows are the grid points)

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
            assert bits(sup_over_time(a.T)) == bits(scaled_norm_rows(a).max())

    def test_one_grid_point_is_its_l2_norm(self):
        assert sup_over_time(np.array([[3.0], [4.0]])) == 5.0


# --------------------------------------------------------------------------
# sup_over_time on a single row

def one_row_entries():
    """Moderate and arbitrary finite doubles, subnormals, +-0, NaN, +-inf,
    and each limit of the one-row path and 1e154 (past which x^2
    overflows), with its neighbours on both sides, either sign."""
    edges = []
    for edge in (2.0 * FAST_NORM_MIN, FAST_NORM_MAX, 1e154):
        edges += [float(np.nextafter(edge, 0.0)), edge, float(np.nextafter(edge, math.inf))]
    pool = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e-160, *edges]
    value = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(pool))
    return st.tuples(value, st.booleans()).map(lambda vs: -vs[0] if vs[1] else vs[0])


class TestSupOverTimeOneRow:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(one_row_entries(), min_size=1, max_size=40))
    @example([3.0, -4.0])
    @example([math.inf, 1.0])      # max |x| is inf; the scaled norm is NaN
    @example([2e-140, -1e-300])    # the lower limit itself
    @example([float(np.nextafter(2e-140, 0.0))])
    @example([1e140, 0.0])         # the upper limit itself
    @example([float(np.nextafter(1e140, math.inf))])
    @example([-1e154, math.nan])
    @example([0.0, -0.0])
    @example([5e-324])
    def test_equals_max_of_scaled_norm_rows_bit_for_bit(self, values):
        rows = np.array([values])
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN points
            want = scaled_norm_rows(rows.T).max()
            got = sup_over_time(rows)
        assert bits(got) == bits(want)

    def test_in_range_it_is_the_largest_magnitude(self):
        assert sup_over_time(np.array([[3.0, -4.0, 0.5]])) == 4.0


# --------------------------------------------------------------------------
# row log-sum-exp

#: scipy.special.logsumexp of scipy 1.17 separates the row maximum and its
#: ties from the sum, the form `_row_logsumexp` reproduces step for step
SCIPY_MINOR = tuple(int(part) for part in scipy.__version__.split(".")[:2])
MAX_SEPARATED_SCIPY = (1, 17)


def lse_entries(specials: bool):
    """Finite entries past the exp range, exact repeats (ties), and with
    `specials` the non-finite values."""
    pool = [0.0, -2.5, 700.0, 710.0, -math.inf] + ([math.inf, math.nan] if specials else [])
    return st.one_of(st.floats(-1e3, 1e3), st.sampled_from(pool))


@st.composite
def lse_arrays(draw, specials: bool = True, min_width: int = 0):
    width = draw(st.integers(min_width, 8))
    rows = draw(st.lists(st.lists(lse_entries(specials), min_size=width, max_size=width),
                         min_size=0 if specials else 1, max_size=6))
    a = np.array(rows, dtype=float).reshape(len(rows), width)
    # whole-row cases the entry draws rarely produce
    if a.size:
        kind = draw(st.sampled_from(["as drawn", "all -inf", "all tied"]))
        if kind == "all -inf":
            a[0] = -math.inf
        elif kind == "all tied":
            a[-1] = a[-1, 0]
    return a


def rowwise_logsumexp(a: np.ndarray) -> np.ndarray:
    """The row-wise steps of `_row_logsumexp` as they stood before it had a
    one-row path, frozen here as that path's reference: a one-row input
    runs them on (1, n) and (1, 1) arrays."""
    if a.shape[1] == 0:
        return np.full(a.shape[0], -np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=1, keepdims=True)
        ties = a == top
        m = np.sum(ties, axis=1, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(ties, -np.inf, a) - top), axis=1, keepdims=True)
        out = (np.log1p(s / m) + np.log(m) + top)[:, 0]
        bad = ~np.isfinite(out)
        if np.any(bad):
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


class TestRowLogSumExp:
    @pytest.mark.skipif(SCIPY_MINOR != MAX_SEPARATED_SCIPY,
                        reason="the bits are those of scipy 1.17's logsumexp")
    @settings(max_examples=500, deadline=None)
    @given(lse_arrays())
    @example(np.zeros((0, 0)))
    @example(np.zeros((3, 0)))                                  # zero width
    @example(np.array([[-math.inf, -math.inf], [1.0, 1.0]]))    # all -inf; a tie
    @example(np.array([[math.inf, -math.inf, 3.0], [math.nan, 1.0, math.inf]]))
    def test_matches_scipy_bit_for_bit(self, a):
        from scipy.special import logsumexp
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want = np.asarray(logsumexp(a, axis=1), dtype=float).reshape(a.shape[0])
            got = _row_logsumexp(a)  # callers run it with warnings off
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(lse_arrays(specials=False, min_width=1))
    @example(np.array([[-math.log(2.0), -math.log(2.0), -30.0]]))  # log m cancels the max
    def test_within_four_ulp_of_mpmath(self, a):
        """Four ulp of the largest of the result, the row maximum M and their
        difference (the terms the last additions combine), plus what the
        rounded shifts carry: fl(x - M) is off by up to |x - M| eps / 2,
        which e^{x - M} turns into a relative error of that size."""
        with np.errstate(all="ignore"):
            got = _row_logsumexp(a)
        with mpmath.workdps(60):
            for value, row in zip(got, a):
                finite = [mpmath.mpf(float(x)) for x in row if x != -math.inf]
                if not finite:
                    assert value == -math.inf
                    continue
                # M + log1p(the other terms over e^M): no 1 + tiny to round
                rest = sorted(finite)
                top = rest.pop()
                terms = [mpmath.exp(x - top) for x in rest]
                exact = top + mpmath.log1p(mpmath.fsum(terms))
                scale = max(abs(exact), abs(top), abs(exact - top))
                shifts = mpmath.fsum(t * (top - x) for t, x in zip(terms, rest))
                tol = 4 * np.spacing(float(scale)) + np.finfo(float).eps * float(shifts)
                assert abs(mpmath.mpf(float(value)) - exact) <= tol

    @settings(max_examples=300, deadline=None)
    @given(lse_arrays())
    @example(np.array([[1.0, 1.0, -2.5]]))                 # a tie
    @example(np.array([[-math.inf, -math.inf]]))           # every entry -inf
    @example(np.array([[math.nan, 1.0], [math.inf, 0.0]]))
    @example(np.array([[710.0, 700.0, 710.0, -math.inf]]))
    def test_one_row_is_the_row_wise_path(self, a):
        """Each row alone (the one-row path) and the whole array against
        the frozen row-wise steps on the same input, bit for bit."""
        with np.errstate(all="ignore"):
            for row in a:
                got = _row_logsumexp(row[None])
                assert got.tobytes() == rowwise_logsumexp(row[None]).tobytes()
            assert _row_logsumexp(a).tobytes() == rowwise_logsumexp(a).tobytes()


# --------------------------------------------------------------------------
# one Gevrey norm

def rowwise_gevrey_norm(psi: SpectralField, gp: GevreyParams) -> float:
    """gevrey_norm with its log terms in one expression, uncached, and the
    frozen row-wise log-sum-exp on the one-row input."""
    lam, c = psi.model.lambdas, psi.coeffs
    with np.errstate(all="ignore"):
        terms = np.where(c != 0.0, 2.0 * gp.p * np.log(lam) + 2.0 * gp.q * lam
                         + 2.0 * np.log(np.abs(c)), -np.inf)
    log_norm = 0.5 * rowwise_logsumexp(terms[None])[0]
    return exp_checked(float(log_norm), "Gevrey norm")


def outcome(norm, psi: SpectralField, gp: GevreyParams):
    """The bits of the norm, or the message of its range error."""
    try:
        return bits(norm(psi, gp))
    except ExponentOverflowError as exc:
        return str(exc)


def gevrey_coeffs():
    """+-0, repeated magnitudes (ties at p = q = 0), moderate values, values
    near the double range's ends, inf and NaN."""
    pool = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 3.0, 1e-300, -1e300, 5e-324, math.inf, math.nan]
    entry = st.one_of(st.sampled_from(pool), st.floats(-1e3, 1e3))
    return st.lists(entry, min_size=1, max_size=12)


GEVREY_PARAMS = [GevreyParams(0.0, 0.0), GevreyParams(0.0, 0.01), GevreyParams(0.0, 1.5),
                 GevreyParams(1.0, 0.0), GevreyParams(0.5, 0.05), GevreyParams(2.0, 1.0),
                 GevreyParams(0.0, 50.0)]


class TestGevreyNormOneRow:
    @settings(max_examples=500, deadline=None)
    @given(gevrey_coeffs(), st.sampled_from(GEVREY_PARAMS))
    @example([0.0, -0.0, 0.0], GevreyParams(0.0, 1.5))          # an all-zero row
    @example([1.0, -1.0, 0.0, 1.0], GevreyParams(0.0, 0.0))     # three tied maxima
    @example([0.3, 0.0, -2.0], GevreyParams(1.0, 0.0))          # p > 0
    @example([1.0] * 8, GevreyParams(0.0, 50.0))                # the norm overflows
    @example([math.nan, 1.0], GevreyParams(0.0, 0.01))
    def test_equals_the_row_wise_path(self, coeffs, gp):
        psi = SpectralField(EigenModel.dirichlet_1d(len(coeffs)), np.array(coeffs))
        assert outcome(gevrey_norm, psi, gp) == outcome(rowwise_gevrey_norm, psi, gp)

    def test_overflow_message(self):
        psi = SpectralField(EigenModel.dirichlet_1d(8), np.ones(8))
        with pytest.raises(ExponentOverflowError, match="Gevrey norm exceeds the floating range"):
            gevrey_norm(psi, GevreyParams(0.0, 50.0))

    def test_weights_follow_the_eigenvalues(self):
        """Two models with the mode count and parameters in common."""
        gp = GevreyParams(0.5, 0.1)
        c = np.array([0.2, -1.0, 0.0, 3.0])
        for model in (EigenModel.dirichlet_1d(4),
                      EigenModel(dimension=1, lambdas=np.array([1.0, 4.0, 9.0, 16.0]),
                                 e1=1.0, e2=1.0)):
            psi = SpectralField(model, c)
            assert outcome(gevrey_norm, psi, gp) == outcome(rowwise_gevrey_norm, psi, gp)

    def test_infinite_weight_of_a_zero_coefficient_is_left_out(self):
        """2 q lambda_2 overflows where 2 q lambda_1 does not: the zero
        coefficient's term must be -inf, not inf + (-inf) = NaN."""
        model = EigenModel(dimension=1, lambdas=np.array([1e-300, 1e10]), e1=1e-300, e2=1e10)
        gp = GevreyParams(0.0, 1e298)
        for c in ([1.0, 0.0], [1.0, -0.0], [0.0, 0.0]):
            psi = SpectralField(model, np.array(c))
            assert outcome(gevrey_norm, psi, gp) == outcome(rowwise_gevrey_norm, psi, gp)
        assert gevrey_norm(SpectralField(model, np.array([1.0, 0.0])), gp) == math.exp(0.01)
        with pytest.raises(ExponentOverflowError):
            gevrey_norm(SpectralField(model, np.array([1.0, 1e-300])), gp)

    def test_non_finite_and_zero_rows_raise_no_warning(self):
        """gevrey_log_norms owns the errstate of its log-sum-exp: rows with
        a NaN, an inf, none but zeros, and weights that overflow give their
        NaN, inf and -inf with every warning an error, on the certified
        rho's many-row path and on the one-row path alike."""
        lam = EigenModel.dirichlet_1d(3).lambdas
        c = np.array([[math.nan, 1.0, 0.0], [math.inf, 0.0, 1.0], [0.0, -0.0, 0.0],
                      [1e300, -1e300, 0.0], [0.5, -2.0, 3.0]])
        for gp in (GevreyParams(0.5, 1.0), GevreyParams(0.0, 1e308)):
            _gevrey_weights.cache_clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                many = gevrey_log_norms(lam, c, gp)
                one = np.array([gevrey_log_norms(lam, row, gp)[0] for row in c])
            assert math.isnan(many[0]) and many[1] == math.inf and many[2] == -math.inf
            assert np.isfinite(many[3:]).all() == (gp.q < 1e300)
            assert one.tobytes() == many.tobytes()

    def test_weights_built_once_per_eigenvalues_and_parameters(self):
        ref = closed_form_solution(EigenModel.dirichlet_1d(8), 1, 1.0, 1.0, TimeGrid(1.0, 16))
        gp = GevreyParams(0.25, 0.75)
        _gevrey_weights.cache_clear()
        for i in range(17):
            gevrey_norm(ref.trajectory.state(i), gp)
        info = _gevrey_weights.cache_info()
        assert (info.misses, info.hits) == (1, 16)


# --------------------------------------------------------------------------
# certified rho

def fsum_rho(reference: ReferenceSolution, gp: GevreyParams) -> float:
    """RHO_SAFETY * max over rows of the Gevrey norm, one row at a time,
    with the log-domain terms summed by math.fsum."""
    lam = reference.trajectory.model.lambdas
    worst = -math.inf
    for row in reference.trajectory.states.T:
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
    model = EigenModel.dirichlet_1d(states.shape[0])
    grid = TimeGrid(tau, states.shape[1] - 1)
    return ReferenceSolution(Trajectory(grid, model, states))


def random_states(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((65, 10)).T * np.exp(rng.uniform(-5.0, 5.0, 65))
    states[[1, 4, 9]] = 0.0             # modes that are zero everywhere
    states[:, 7] = 0.0                  # one all-zero grid point
    states[2, ::5] = 0.0                # a live mode that vanishes at some points
    return states


class TestCertifiedRho:
    def test_closed_form_reference(self):
        model = EigenModel.dirichlet_1d(8)
        for mode, c in ((1, 1.0), (2, 0.0), (1, -0.5)):
            ref = closed_form_solution(model, mode, c, 1.0, TimeGrid(1.0, 400))
            for gp in (GevreyParams(0.0, 1.5), GevreyParams(1.0, 1.0)):
                assert _certified_rho(ref, gp) == pytest.approx(fsum_rho(ref, gp), rel=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_states_with_zero_columns_and_rows(self, seed):
        ref = synthetic_reference(random_states(seed))
        gp = GevreyParams(0.5, 0.05)
        got = _certified_rho(ref, gp)
        assert got == pytest.approx(fsum_rho(ref, gp), rel=1e-14)
        assert got == pytest.approx(per_row_rho(ref, gp), rel=1e-14)

    # (certified rho, gevrey_norm at the first, middle and last grid point)
    # as float.hex, recorded from the scipy.special.logsumexp implementation
    PINNED = {
        ("closed", 1, 1.0, 0): ("0x1.041862fc251abp+34", ("0x1.018522a378616p+34",
                                "0x1.9dc0090b7f099p+27", "0x1.482848d9caf33p+21")),
        ("closed", 1, 1.0, 1): ("0x1.2763ab06365ecp+30", ("0x1.2476f55edd1e7p+30",
                                "0x1.d5e508cc8af9bp+23", "0x1.74afee6f7f796p+17")),
        ("closed", 2, 0.0, 0): ("0x1.4a282fb6b4fddp+142", ("0x1.46e35a5494c8ap+142",
                                "0x1.db7e054052188p+113", "0x1.599a9d4f0da06p+85")),
        ("closed", 2, 0.0, 1): ("0x1.24828cb60e3b9p+119", ("0x1.219d2365adc66p+119",
                                "0x1.a545e3ff357b4p+90", "0x1.3232104daa653p+62")),
        ("closed", 1, -0.5, 0): ("0x1.274e5c8fc1a4ap+36", ("0x1.2461dce994a30p+36",
                                 "0x1.b81f769f5cc89p+28", "0x1.482848d9caf33p+21")),
        ("closed", 1, -0.5, 1): ("0x1.4f60cf421c3bdp+32", ("0x1.4c0ebdff8e037p+32",
                                 "0x1.f3d89be0d831cp+24", "0x1.74afee6f7f796p+17")),
        ("random", 0): ("0x1.cc4bb7a605f6ep+69", ("0x1.02b0a6ddfe175p+59", "0x0.0p+0",
                        "0x1.8372dcd500189p+62")),
        ("random", 1): ("0x1.b426a74d1649cp+69", ("0x1.e9036cdfefb5dp+62", "0x0.0p+0",
                        "0x1.9b17388c34d28p+64")),
        ("random", 2): ("0x1.84c771634ee7ap+69", ("0x1.77a91b4895645p+62", "0x0.0p+0",
                        "0x1.03383d7e6dbf5p+51")),
    }

    def test_values_keep_their_bits(self):
        """The inputs of the tests above: closed forms on a 400-step grid and
        the random states of seeds 0-2 (grid point 7 is all zero)."""
        model = EigenModel.dirichlet_1d(8)
        cases = {}
        for mode, c in ((1, 1.0), (2, 0.0), (1, -0.5)):
            ref = closed_form_solution(model, mode, c, 1.0, TimeGrid(1.0, 400))
            for k, gp in enumerate((GevreyParams(0.0, 1.5), GevreyParams(1.0, 1.0))):
                cases[("closed", mode, c, k)] = (ref, gp, (0, 200, 400))
        for seed in (0, 1, 2):
            ref = synthetic_reference(random_states(seed))
            cases[("random", seed)] = (ref, GevreyParams(0.5, 0.05), (0, 7, 64))
        for key, (ref, gp, rows) in cases.items():
            got = (_certified_rho(ref, gp).hex(),
                   tuple(gevrey_norm(ref.trajectory.state(i), gp).hex() for i in rows))
            assert got == self.PINNED[key], key

    def test_all_zero_reference_rejected(self):
        ref = synthetic_reference(np.zeros((4, 9)))
        with pytest.raises(ConfigError):
            _certified_rho(ref, GevreyParams(0.0, 1.0))
        assert per_row_rho(ref, GevreyParams(0.0, 1.0)) == 0.0  # the old loop's test value

    def test_overflow_signalled_like_the_per_row_loop(self):
        states = np.zeros((8, 9))
        states[0] = 1.0
        states[7, 3] = 1e-30                # one grid point whose norm overflows
        ref = synthetic_reference(states)
        gp = GevreyParams(0.0, 2.0)         # e^{2 q lambda_8} ~ e^{2527}
        with pytest.raises(ExponentOverflowError):
            per_row_rho(ref, gp)
        with pytest.raises(ExponentOverflowError):
            _certified_rho(ref, gp)


# --------------------------------------------------------------------------
# stencil quadrature

#: the quadrature's interpolation orders (one: the 6-point stencil); the
#: stencil tests run once per order and carry it in their ids
ORDERS = sorted(SCHEME_ORDER)


def gather_integrals(w: np.ndarray, h: float, z: float, order: int) -> tuple:
    """(integrals, summed magnitudes of their terms), all intervals, by a
    per-interval gather of `order`-point stencil values and an einsum."""
    n = w.size - 1
    bases = np.clip(np.arange(n) - (order // 2 - 1), 0, n + 1 - order)
    weights = np.array([lagrange_exp_weights(np.arange(b - i, b - i + order), z)
                        for i, b in enumerate(bases)])
    idx = bases[:, None] + np.arange(order)[None, :]
    products = weights * w[idx]
    return h * np.einsum("ik->i", products), h * np.sum(np.abs(products), axis=1)


def interval_integrals(w: np.ndarray, h: float, z: float) -> np.ndarray:
    """The stencil kernel's interval integrals, as a new array."""
    out = np.empty(w.size - 1)
    _interval_integrals(np.ascontiguousarray(w), h, _interval_weight_table(z), out)
    return out


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("z", [0.0, 1e-3, 0.5, 30.0])
@pytest.mark.parametrize("n", [5, 6, 7, 8, 128, 4000])
def test_stencil_matches_gather(n, z, order):
    rng = np.random.default_rng(n)
    w = rng.standard_normal(n + 1)
    h = 1.0 / n
    want, scale = gather_integrals(w, h, z, order)
    got = interval_integrals(w, h, z)
    assert got.shape == (n,)
    # relative to the summed magnitudes: the stencil sums may cancel
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_weight_table_is_the_lagrange_rows():
    """One moment vector and the cached stencil inverses give the rows that
    `lagrange_exp_weights` forms one stencil at a time, byte for byte."""
    draws = np.random.default_rng(700).uniform(0.0, 700.0, 200)
    for z in [0.0, 1e-12, 1e-3, 0.5, 30.0, 699.0] + [float(d) for d in draws]:
        want = np.array([lagrange_exp_weights(np.arange(s, s + 6), z) for s in range(-4, 1)])
        assert _interval_weight_table(z).tobytes() == want.tobytes(), z


def test_weight_table_overflow_is_the_lagrange_overflow():
    z = 750.0  # e^z / z is past the double range: the moments overflow
    with pytest.raises(ExponentOverflowError) as want:
        lagrange_exp_weights(np.arange(-2, 4), z)
    with pytest.raises(ExponentOverflowError) as got:
        _interval_weight_table(z)
    assert str(got.value) == str(want.value) == "exponential moments overflow at z = 750"


def test_order6_needs_six_points():
    # the plan refuses 5 grid points and takes 6, the smallest stencil
    with pytest.raises(ValueError, match="at least 6 grid points"):
        QuadraturePlan((0.4,), 0.25, 4)
    QuadraturePlan((0.4,), 0.2, 5)


# --------------------------------------------------------------------------
# exponential-kernel recurrence

def recurrence_loop(w: np.ndarray, h: float, z: float) -> np.ndarray:
    """I_k = A_k + e^z I_{k+1} from I_n = 0, one rounded step at a time."""
    A = interval_integrals(w, h, z)
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


#: rates and grid sizes of the recurrence tests
RECURRENCE_ZS = [0.0, 1e-9, 1e-3, 0.5, 30.0, 699.0]
RECURRENCE_NS = [1, 2, 5, 6, 7, 128, 4096]


@pytest.mark.parametrize("z", RECURRENCE_ZS)
@pytest.mark.parametrize("n", RECURRENCE_NS)
def test_kernel_profile_is_the_rounded_recurrence(n, z):
    """The banded solve reproduces the plain loop byte for byte.

    Two integrands: one of unit size everywhere (it overflows for large
    z n, and then both must report it) and one that decays like e^{-lam t},
    whose underflowing tail gives some A_k = -0.0 (n = 4096, z = 0.5).
    Grids of 2 and 3 points are too short for the 6-point stencil, and
    there is no lower-order scheme to fall back on: at every rate and in
    every layout they are refused.
    """
    rng = np.random.default_rng(n)
    h = 1.0 / n
    lam = z / h
    dense = rng.standard_normal(n + 1)
    decaying = dense * np.exp(-z * np.arange(n + 1))
    if n < 5:
        for w in (dense, decaying):
            for view in layouts(w):
                with pytest.raises(ValueError, match="at least 6 grid points"):
                    exp_kernel_profile(lam, h, view)
        return
    for w in (dense, decaying):
        want = recurrence_loop(w, h, lam * h)
        for view in layouts(w):
            if not np.all(np.isfinite(want)):
                with pytest.raises(ExponentOverflowError):
                    exp_kernel_profile(lam, h, view)
                continue
            got = exp_kernel_profile(lam, h, view)
            assert got.tobytes() == want.tobytes(), view.strides


@pytest.mark.parametrize("z", RECURRENCE_ZS)
@pytest.mark.parametrize("n", RECURRENCE_NS)
def test_scipy_fallback_is_the_rounded_recurrence(n, z, monkeypatch):
    """scipy's dtbsv, the fallback for a numpy without its bundled OpenBLAS,
    passes the recurrence test through the same plans, on every numpy."""
    # the cached banded solves come from the binder: none may outlive the swap
    quadrature._recurrence_band.cache_clear()
    monkeypatch.setattr(quadrature, "_bind_dtbsv", _scipy_dtbsv())
    try:
        test_kernel_profile_is_the_rounded_recurrence(n, z)
    finally:
        quadrature._recurrence_band.cache_clear()


def test_bundled_dtbsv_refuses_buffers_of_another_layout():
    # the bound call writes through raw addresses: a layout it would
    # misread is refused before any address is taken
    bundled = _openblas_dtbsv()
    if bundled is None:
        pytest.skip("numpy bundles no OpenBLAS here: the fallback is the only path")
    band, x = np.full((2, 8), -1.5, order="F"), np.ones(8)
    bundled(band)(x)
    for bad_band in [np.full((2, 8), -1.5), np.full((3, 8), -1.5, order="F"),
                     np.full(8, -1.5), band.astype(np.float32, order="F")]:
        with pytest.raises(ValueError, match="dtbsv takes a"):
            bundled(bad_band)
    for bad_x in [np.ones(9), np.ones(16)[::2], np.ones(8, dtype=np.float32),
                  np.ones((1, 8))]:
        with pytest.raises(ValueError, match="dtbsv takes a"):
            bundled(band)(bad_x)
    read_only = np.ones(8)
    read_only.flags.writeable = False
    with pytest.raises(ValueError, match="dtbsv takes a"):
        bundled(band)(read_only)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [5, 6, 7, 128, 4096])
def test_backward_cumulative_is_the_rounded_running_sum(n, order):
    """W_k = W_{k+1} + A_k from W_n = 0, one rounded step at a time."""
    rng = np.random.default_rng(n)
    w = rng.standard_normal(n + 1)
    h = 1.0 / n
    # A_k integrates an `order`-point stencil, one of its order - 1 shapes
    assert _interval_weight_table(0.0).shape == (order - 1, order)
    A = interval_integrals(w, h, 0.0)
    want = np.zeros(n + 1)
    acc = 0.0
    for k in range(n - 1, -1, -1):
        acc = acc + float(A[k])
        want[k] = acc
    for view in layouts(w):
        assert backward_cumulative(h, view).tobytes() == want.tobytes()
