import math

import numpy as np
import pytest
from scipy.integrate import quad

from fvptrunc import ExponentOverflowError, TimeGrid, backward_cumulative
from fvptrunc.quadrature import (_recurrence_band, exp_kernel_profile, lagrange_exp_weights,
                                 phi1, phi2)
from fvptrunc.solver import exp_kernel_integral

PI2 = math.pi ** 2


class TestScaledExponentials:
    def test_phi1_matches_direct_form(self):
        for z in (0.2, 1.0, 5.0, -0.4):
            assert phi1(z) == pytest.approx(math.expm1(z) / z, rel=1e-14)

    def test_phi2_series_matches_direct_form_at_crossover(self):
        # the series and the direct form must agree where they hand over
        for z in (0.3, 0.35001, 0.4, -0.3):
            direct = (math.expm1(z) - z) / (z * z)
            assert phi2(z) == pytest.approx(direct, rel=1e-12)

    def test_phi2_small_z_no_cancellation(self):
        z = 1e-10
        assert phi2(z) == pytest.approx(0.5 + z / 6.0, rel=1e-14)
        assert phi2(0.0) == 0.5

    def test_lagrange_weights_reproduce_plain_moments_at_zero(self):
        w = lagrange_exp_weights(np.arange(-2, 4), 0.0)
        # integrating the constant 1 over [0,1] gives 1
        assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("order", [2, 6])
class TestKernelProfile:
    def test_constant_integrand_closed_form(self, order):
        grid = TimeGrid(1.0, 64)
        lam = PI2
        w = np.ones(grid.n_steps + 1)
        prof = exp_kernel_profile(lam, grid.h, w, order)
        expected = (np.exp(lam * (grid.tau - grid.points)) - 1.0) / lam
        assert prof == pytest.approx(expected, rel=1e-12)

    def test_constant_integrand_zero_rate(self, order):
        grid = TimeGrid(2.0, 32)
        prof = exp_kernel_profile(0.0, grid.h, np.ones(grid.n_steps + 1), order)
        assert prof == pytest.approx(grid.tau - grid.points, rel=1e-13, abs=1e-14)

    def test_linear_integrand_zero_rate(self, order):
        # w(s) = s, lam = 0: integral = (tau^2 - t^2)/2, exact for both orders
        grid = TimeGrid(1.5, 48)
        prof = exp_kernel_profile(0.0, grid.h, grid.points.copy(), order)
        expected = (grid.tau ** 2 - grid.points ** 2) / 2.0
        assert prof == pytest.approx(expected, rel=1e-13, abs=1e-14)

    def test_overflow_signalled(self, order):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ExponentOverflowError):
            exp_kernel_profile(1e5, grid.h, np.ones(grid.n_steps + 1), order)


class TestAgainstAdaptiveQuadrature:
    def exact(self, lam, t, tau=1.0):
        val, err = quad(lambda s: math.exp(lam * (s - t)) * math.sin(s), t, tau,
                        limit=400)
        assert err < 1e-12 * abs(val)
        return val

    def test_sine_integrand_order2(self):
        # PL interpolation converges slowly; a fine grid reaches 1e-10
        grid = TimeGrid(1.0, 131072)
        w = np.sin(grid.points)
        got = exp_kernel_integral(PI2, grid, w, 0, order=2)
        assert got == pytest.approx(self.exact(PI2, 0.0), rel=1e-10)

    def test_sine_integrand_order6(self):
        grid = TimeGrid(1.0, 2048)
        w = np.sin(grid.points)
        got = exp_kernel_integral(PI2, grid, w, 0, order=6)
        assert got == pytest.approx(self.exact(PI2, 0.0), rel=1e-12)

    def test_interior_time_points(self):
        grid = TimeGrid(1.0, 2048)
        w = np.sin(grid.points)
        prof = exp_kernel_profile(PI2, grid.h, w, order=6)
        for idx in (512, 1024, 1536):
            assert prof[idx] == pytest.approx(self.exact(PI2, grid.points[idx]),
                                              rel=1e-11)

    def test_order2_converges_at_second_order(self):
        errs = []
        for n in (500, 1000, 2000):
            grid = TimeGrid(1.0, n)
            got = exp_kernel_integral(PI2, grid, np.sin(grid.points), 0, order=2)
            errs.append(abs(got - self.exact(PI2, 0.0)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


@pytest.mark.parametrize("order", [2, 6])
class TestBackwardCumulative:
    def test_linear_function(self, order):
        grid = TimeGrid(1.0, 40)
        out = backward_cumulative(grid.h, grid.points.copy(), order)
        expected = (grid.tau ** 2 - grid.points ** 2) / 2.0
        assert out == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_endpoint_is_zero(self, order):
        grid = TimeGrid(1.0, 16)
        out = backward_cumulative(grid.h, np.cos(grid.points), order)
        assert out[-1] == 0.0

    def test_smooth_function_order6_accuracy(self, order):
        grid = TimeGrid(1.0, 256)
        out = backward_cumulative(grid.h, np.exp(grid.points), order)
        expected = math.e - np.exp(grid.points)
        tol = 5e-6 if order == 2 else 1e-12
        assert out == pytest.approx(expected, rel=tol, abs=tol)


class TestValidation:
    def test_bad_order(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            exp_kernel_profile(1.0, grid.h, np.ones(9), order=3)

    def test_order6_needs_six_points(self):
        with pytest.raises(ValueError):
            exp_kernel_profile(1.0, 0.25, np.ones(5), order=6)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            exp_kernel_profile(-1.0, 0.1, np.ones(9), order=2)

    def test_t_index_out_of_range(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(IndexError):
            exp_kernel_integral(1.0, grid, np.ones(9), 9, order=2)


class TestRecurrenceBand:
    def test_band_is_read_only_and_reused(self):
        h = 1.0 / 64
        lam = 0.75 / h
        w = np.linspace(0.0, 1.0, 65)
        first = exp_kernel_profile(lam, h, w, 6)
        band = _recurrence_band(lam * h, 64)
        assert not band.flags.writeable
        with pytest.raises(ValueError):
            band[1, 0] = 0.0
        hits = _recurrence_band.cache_info().hits
        again = exp_kernel_profile(lam, h, 2.0 * w, 6)
        assert _recurrence_band.cache_info().hits == hits + 1
        assert _recurrence_band(lam * h, 64) is band
        assert again.tobytes() == (2.0 * first).tobytes()
        assert band.shape == (2, 64) and band.flags.f_contiguous
        assert np.all(band[1] == -math.exp(lam * h))
        assert _recurrence_band(lam * h, 65) is not band
