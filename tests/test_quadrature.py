import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fvptrunc import ExponentOverflowError, TimeGrid, backward_cumulative, quadrature
from fvptrunc.quadrature import SCHEME_ORDER, QuadraturePlan, _exp_moments, exp_kernel_profile
from fvptrunc.solver import DEFAULT_QUADRATURE_ORDER
from oracle import lagrange_exp_weights

PI2 = math.pi ** 2

#: the quadrature's interpolation orders (one: the 6-point stencil); the
#: classes below run once per order and carry it in their ids
ORDERS = sorted(SCHEME_ORDER)


class TestScaledExponentials:
    def test_lagrange_weights_reproduce_plain_moments_at_zero(self):
        w = lagrange_exp_weights(np.arange(-2, 4), 0.0)
        # integrating the constant 1 over [0,1] gives 1
        assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-12)


class TestExpMoments:
    """M_m(z) = int_0^1 s^m e^{z s} ds for m <= 5, the stencil's moments, in
    both branches: the power series below z = 10 and the recurrence above."""

    EDGES = [0.0, 1e-12, 1e-3, 0.5, 9.999, 10.0, 10.001, 30.0, 300.0, 699.0]
    # 100 seeded draws in each branch
    DRAWS = np.random.default_rng(20231).uniform([0.0, 10.0], [10.0, 700.0], (100, 2)) \
        .ravel().tolist()

    @staticmethod
    def exact(z, m):
        with mpmath.workdps(40):
            return float(mpmath.hyp1f1(m + 1, m + 2, z) / (m + 1))

    def test_within_four_ulp_of_mpmath(self):
        for z in self.EDGES + self.DRAWS:
            got = _exp_moments(z, 5)
            for m in range(6):
                want = self.exact(z, m)
                assert abs(got[m] - want) <= 4 * math.ulp(want), (z, m)

    @pytest.mark.parametrize("z", [709.9, 750.0, math.inf, math.nan])
    def test_overflow_signalled_without_a_warning(self, z):
        # the suite turns numpy's overflow warning into an error
        with pytest.raises(ExponentOverflowError, match="exponential moments overflow"):
            _exp_moments(z, 5)

    @pytest.mark.parametrize("z", [-1e-300, -1.0, -40.0, -math.inf])
    def test_negative_rate_refused(self, z):
        # the power series alternates there and cancels to wrong moments
        with pytest.raises(ValueError, match="need z >= 0"):
            _exp_moments(z, 5)
        with pytest.raises(ValueError, match="need z >= 0"):
            lagrange_exp_weights(np.arange(-2, 4), z)


class TestArgumentChecks:
    """A rate must be >= 0 and a step finite and positive; NaN is neither."""

    W = np.ones(11)

    @pytest.mark.parametrize("lam", [-1.0, math.nan])
    def test_bad_rate_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            exp_kernel_profile(lam, 0.1, self.W)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            QuadraturePlan((0.5, lam), 0.1, 10)

    @pytest.mark.parametrize("h", [-0.1, 0.0, math.inf, -math.inf, math.nan])
    def test_bad_step_rejected(self, h):
        with pytest.raises(ValueError, match="step h must be finite and positive"):
            exp_kernel_profile(1.0, h, self.W)
        with pytest.raises(ValueError, match="step h must be finite and positive"):
            backward_cumulative(h, self.W)


@pytest.mark.parametrize("order", ORDERS)
class TestKernelProfile:
    def test_constant_integrand_closed_form(self, order):
        grid = TimeGrid(1.0, 64)
        lam = PI2
        w = np.ones(grid.n_steps + 1)
        prof = exp_kernel_profile(lam, grid.h, w)
        expected = (np.exp(lam * (grid.tau - grid.points)) - 1.0) / lam
        assert prof == pytest.approx(expected, rel=1e-12)

    def test_constant_integrand_zero_rate(self, order):
        grid = TimeGrid(2.0, 32)
        prof = exp_kernel_profile(0.0, grid.h, np.ones(grid.n_steps + 1))
        assert prof == pytest.approx(grid.tau - grid.points, rel=1e-13, abs=1e-14)

    def test_linear_integrand_zero_rate(self, order):
        # w(s) = s, lam = 0: integral = (tau^2 - t^2)/2, exact
        grid = TimeGrid(1.5, 48)
        prof = exp_kernel_profile(0.0, grid.h, grid.points.copy())
        expected = (grid.tau ** 2 - grid.points ** 2) / 2.0
        assert prof == pytest.approx(expected, rel=1e-13, abs=1e-14)

    def test_linear_integrand_closed_form(self, order):
        # w(s) = s is its own interpolant, so the profile is
        # exact: with L = tau - t, e^{lam L} (lam L - 1) + 1 over lam^2 plus
        # t (e^{lam L} - 1) / lam.  lam h = 5 makes each node's weight count.
        grid = TimeGrid(1.0, 10)
        lam = 50.0
        prof = exp_kernel_profile(lam, grid.h, grid.points.copy())
        L = grid.tau - grid.points
        growth = np.exp(lam * L)
        expected = (growth * (lam * L - 1.0) + 1.0) / lam ** 2 + grid.points * (growth - 1.0) / lam
        assert prof == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_overflow_signalled(self, order):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ExponentOverflowError):
            exp_kernel_profile(1e5, grid.h, np.ones(grid.n_steps + 1))


class TestAgainstAdaptiveQuadrature:
    def exact(self, lam, t, tau=1.0):
        val, err = quad(lambda s: math.exp(lam * (s - t)) * math.sin(s), t, tau,
                        limit=400)
        assert err < 1e-12 * abs(val)
        return val

    def test_sine_integrand_order6(self):
        grid = TimeGrid(1.0, 2048)
        got = exp_kernel_profile(PI2, grid.h, np.sin(grid.points))[0]
        assert got == pytest.approx(self.exact(PI2, 0.0), rel=1e-12)

    def test_interior_time_points(self):
        grid = TimeGrid(1.0, 2048)
        w = np.sin(grid.points)
        prof = exp_kernel_profile(PI2, grid.h, w)
        for idx in (512, 1024, 1536):
            assert prof[idx] == pytest.approx(self.exact(PI2, grid.points[idx]),
                                              rel=1e-11)

    def test_converges_at_scheme_order(self):
        # the error must drop by 3/4 of 2^order per halving (measured: 87x
        # and 78x); from n = 128 on it reaches quad's own error estimate
        errs = []
        for n in (16, 32, 64):
            grid = TimeGrid(1.0, n)
            got = exp_kernel_profile(PI2, grid.h, np.sin(grid.points))[0]
            errs.append(abs(got - self.exact(PI2, 0.0)))
        rate = 0.75 * 2 ** SCHEME_ORDER[DEFAULT_QUADRATURE_ORDER]
        assert errs[0] / errs[1] >= rate
        assert errs[1] / errs[2] >= rate


@pytest.mark.parametrize("order", ORDERS)
class TestBackwardCumulative:
    def test_linear_function(self, order):
        grid = TimeGrid(1.0, 40)
        out = backward_cumulative(grid.h, grid.points.copy())
        expected = (grid.tau ** 2 - grid.points ** 2) / 2.0
        assert out == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_endpoint_is_zero(self, order):
        grid = TimeGrid(1.0, 16)
        out = backward_cumulative(grid.h, np.cos(grid.points))
        assert out[-1] == 0.0

    def test_smooth_function_order6_accuracy(self, order):
        grid = TimeGrid(1.0, 256)
        out = backward_cumulative(grid.h, np.exp(grid.points))
        expected = math.e - np.exp(grid.points)
        assert out == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestValidation:
    def test_bad_order(self):
        # there is one scheme, so no routine takes an order: a caller that
        # still passes one fails loudly instead of getting another scheme
        grid = TimeGrid(1.0, 8)
        with pytest.raises(TypeError):
            exp_kernel_profile(1.0, grid.h, np.ones(9), 2)
        with pytest.raises(TypeError):
            backward_cumulative(grid.h, np.ones(9), order=6)
        with pytest.raises(TypeError):
            QuadraturePlan((1.0,), grid.h, 8, 6)

    def test_order6_needs_six_points(self):
        with pytest.raises(ValueError, match="at least 6 grid points"):
            exp_kernel_profile(1.0, 0.25, np.ones(5))
        with pytest.raises(ValueError, match="at least 6 grid points"):
            backward_cumulative(0.25, np.ones(5))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            exp_kernel_profile(-1.0, 0.1, np.ones(9))

    def test_t_index_out_of_range(self):
        # a value at grid point t_k is profile[k]: one entry per point
        # t_0 .. t_n, so an index past the grid raises
        grid = TimeGrid(1.0, 8)
        prof = exp_kernel_profile(1.0, grid.h, np.ones(9))
        assert prof.shape == (grid.n_steps + 1,)
        with pytest.raises(IndexError):
            prof[grid.n_steps + 1]


class TestRecurrenceBand:
    def test_band_is_cached_and_reused(self):
        # every plan of one rate and grid size shares one bound banded
        # solve, and a plan's solve serves every profile call of the plan
        h = 1.0 / 64
        lam = 0.75 / h
        w = np.linspace(0.0, 1.0, 65)
        quadrature._recurrence_band.cache_clear()
        plan = QuadraturePlan((lam,), h, 64)
        other = QuadraturePlan((lam, 0.5 * lam), h, 64)
        info = quadrature._recurrence_band.cache_info()
        assert (info.misses, info.hits) == (2, 1)
        first, again, second = np.empty(65), np.empty(65), np.empty(65)
        plan.profile(0, w, first)
        plan.profile(0, 2.0 * w, again)
        other.profile(0, w, second)
        assert first.tobytes() == exp_kernel_profile(lam, h, w).tobytes()
        assert again.tobytes() == (2.0 * first).tobytes()
        assert second.tobytes() == first.tobytes()
        assert quadrature._recurrence_band.cache_info().hits == 2


class TestQuadraturePlan:
    """One plan serves every mode of a solve, reusing one scratch row; each
    mode's rows must come out as the one-off calls give them."""

    ZS = (0.0, 1e-3, 0.5, 30.0)

    @pytest.mark.parametrize("n", [5, 6, 7, 128, 4000])
    def test_rows_equal_the_one_off_calls(self, n):
        h = 1.0 / n
        lams = np.array(self.ZS) / h
        rng = np.random.default_rng(n)
        # decaying like e^{-lam t}, so the profile stays finite at z = 30
        rows = rng.standard_normal((len(self.ZS), n + 1)) \
            * np.exp(-np.outer(self.ZS, np.arange(n + 1)))
        plan = QuadraturePlan(lams, h, n)
        cumulative, profile = np.empty_like(rows), np.empty_like(rows)
        for _ in range(2):  # a second pass over the same plan and scratch
            for j, row in enumerate(rows):
                plan.cumulative(row, cumulative[j])
                plan.profile(j, row, profile[j])
            for j, row in enumerate(rows):
                assert cumulative[j].tobytes() == backward_cumulative(h, row).tobytes()
                assert profile[j].tobytes() == exp_kernel_profile(lams[j], h, row).tobytes()

    def test_checks_every_rate_up_front(self):
        with pytest.raises(ExponentOverflowError, match="exponential moments overflow at z = 800"):
            QuadraturePlan(np.array([1.0, 800.0]), 1.0, 16)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            QuadraturePlan(np.array([1.0, -1.0]), 0.1, 16)
