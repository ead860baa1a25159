import math

import mpmath as mp
import numpy as np
import pytest

from fvptrunc import (EigenModel, ExponentOverflowError, FvpInstance,
                      ReferenceRejectedError, SolverConfig,
                      SourceFunction, TimeGrid, UnsupportedRegimeError,
                      closed_form_solution, combined_closed_form, illposed_pair,
                      mode_roots, self_convergent_reference)

PI2 = math.pi ** 2


def mp_roots(lam, c, dps=50):
    """Extended-precision root pair for the regression values."""
    with mp.workdps(dps):
        s = mp.mpf(lam) - mp.mpf(c)
        beta = -(s + mp.sqrt(s * s - 4)) / 2
        return 1 / beta, beta


def mp_mode_value(lam, c, tau, t, dps=50):
    """Extended-precision closed-form coefficient."""
    with mp.workdps(dps):
        a, b = mp_roots(lam, c, dps)
        w = mp.mpf(tau) - mp.mpf(t)
        return (a * mp.exp(-a * w) - b * mp.exp(-b * w)) / (a - b)


class TestModeRoots:
    def test_vieta_random_sweep(self):
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            lam = float(rng.uniform(0.1, 5e4))
            c = float(rng.uniform(-10.0, 10.0))
            if (lam - c) ** 2 <= 4.0 + 1e-6:
                continue
            r = mode_roots(lam, c)
            assert abs(r.alpha * r.beta - 1.0) <= 1e-12
            assert abs(r.alpha + r.beta + (lam - c)) <= 1e-10 * (1.0 + abs(lam - c))

    def test_regression_against_extended_precision(self):
        r = mode_roots(PI2, 1.0)
        a_mp, b_mp = mp_roots(PI2, 1.0)
        assert r.beta == pytest.approx(float(b_mp), rel=1e-15)
        assert r.alpha == pytest.approx(float(a_mp), rel=1e-15)
        # frozen 50-digit regression values
        assert r.beta == pytest.approx(-8.755389030820854, rel=1e-15)
        assert r.alpha == pytest.approx(-0.11421537026850374, rel=1e-15)

    def test_polynomial_residual_c_zero(self):
        r = mode_roots(PI2, 0.0)
        for root in (r.alpha, r.beta):
            residual = root * root + PI2 * root + 1.0
            assert abs(residual) <= 1e-12 * max(1.0, root * root)

    def test_ordering_and_signs(self):
        r = mode_roots(PI2, 1.0)
        assert r.beta < r.alpha < 0.0
        assert abs(r.alpha) <= abs(r.beta)

    def test_degenerate_discriminant_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            mode_roots(3.0, 1.0)  # (lam - c)^2 = 4


def ode_residual(model, n, c, tau, n_steps):
    """Scaled finite-difference residual of the mode ODE.

    u' + lam u = c u + int_t^tau u ds, via centered differences and a
    trapezoid cumulative integral; normalized by lam * sup|u|.
    """
    grid = TimeGrid(tau, n_steps)
    ref = closed_form_solution(model, n, c, tau, grid)
    u = ref.trajectory.states[:, n - 1]
    lam = model.eigenvalue(n)
    h = grid.h
    du = (u[2:] - u[:-2]) / (2.0 * h)
    inc = 0.5 * h * (u[:-1] + u[1:])
    integral = np.concatenate([np.cumsum(inc[::-1])[::-1], [0.0]])
    res = du + lam * u[1:-1] - c * u[1:-1] - integral[1:-1]
    return float(np.max(np.abs(res))) / (lam * float(np.max(np.abs(u))))


class TestClosedForm:
    def test_final_condition_is_exact(self):
        model = EigenModel.dirichlet_1d(4)
        ref = closed_form_solution(model, 1, 1.0, 1.0, TimeGrid(1.0, 32))
        assert ref.trajectory.states[-1, 0] == 1.0
        assert ref.final_data.coeffs[0] == 1.0
        assert ref.provenance == "closed_form"

    def test_ode_residual_on_2001_point_grid(self):
        model = EigenModel.dirichlet_1d(4)
        assert ode_residual(model, 1, 1.0, 1.0, 2000) <= 1e-5

    def test_ode_residual_second_order(self):
        model = EigenModel.dirichlet_1d(4)
        r1 = ode_residual(model, 1, 1.0, 1.0, 500)
        r2 = ode_residual(model, 1, 1.0, 1.0, 1000)
        r4 = ode_residual(model, 1, 1.0, 1.0, 2000)
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)
        assert r2 / r4 == pytest.approx(4.0, rel=0.15)

    def test_initial_value_regression_extended_precision(self):
        model = EigenModel.dirichlet_1d(4)
        ref = closed_form_solution(model, 1, 1.0, 1.0, TimeGrid(1.0, 10))
        expected = float(mp_mode_value(PI2, 1.0, 1.0, 0.0))
        assert ref.trajectory.states[0, 0] == pytest.approx(expected, rel=1e-13)

    def test_zero_source_case(self):
        model = EigenModel.dirichlet_1d(4)
        assert ode_residual(model, 1, 0.0, 1.0, 2000) <= 1e-5

    def test_combined_modes_solve_the_same_odes(self):
        model = EigenModel.dirichlet_1d(4)
        grid = TimeGrid(1.0, 64)
        ref = combined_closed_form(model, [(1, 0.5), (2, 2.0)], 1.0, 1.0, grid)
        one = closed_form_solution(model, 1, 1.0, 1.0, grid)
        two = closed_form_solution(model, 2, 1.0, 1.0, grid)
        assert ref.trajectory.states[:, 0] == pytest.approx(0.5 * one.trajectory.states[:, 0])
        assert ref.trajectory.states[:, 1] == pytest.approx(2.0 * two.trajectory.states[:, 1])


class TestIllposedPair:
    def test_blowup_across_modes(self):
        model = EigenModel.dirichlet_1d(8)
        data_norms, sol_norms = [], []
        for n in range(1, 9):
            pair = illposed_pair(model, n, 1.0)
            data_norms.append(pair.data_norm)
            sol_norms.append(float(pair.solution_norm(0.0)))
        assert all(b < a for a, b in zip(data_norms, data_norms[1:]))
        assert all(b > a for a, b in zip(sol_norms, sol_norms[1:]))

    def test_lower_bound_holds_on_grid(self):
        model = EigenModel.dirichlet_1d(8)
        t = np.linspace(0.0, 0.999, 200)
        for n in (1, 3, 5, 8):
            pair = illposed_pair(model, n, 1.0)
            assert np.all(pair.solution_norm(t) >= pair.lower_bound(t) * (1 - 1e-13))

    def test_final_time_norm_equals_data_norm(self):
        model = EigenModel.dirichlet_1d(4)
        pair = illposed_pair(model, 1, 1.0)
        assert float(pair.solution_norm(1.0)) == pytest.approx(pair.data_norm, rel=1e-14)

    def test_past_the_double_range_raises(self):
        # |beta_8| ~ 630 and |beta_9| ~ 798: e^{|beta|} overflows from mode 9 on
        model = EigenModel.dirichlet_1d(9)
        last = illposed_pair(model, 8, 1.0)
        assert math.isfinite(float(last.solution_norm(0.0)))
        assert math.isfinite(float(last.lower_bound(0.0)))
        pair = illposed_pair(model, 9, 1.0)
        with pytest.raises(ExponentOverflowError, match="overflows"):
            pair.solution_norm(0.0)
        with pytest.raises(ExponentOverflowError, match="overflows"):
            pair.lower_bound(np.array([0.5, 0.0]))
        assert math.isfinite(float(pair.solution_norm(0.5)))
        with pytest.raises(ExponentOverflowError):
            closed_form_solution(model, 9, 1.0, 1.0, TimeGrid(1.0, 16))

    def test_norms_match_extended_precision(self):
        model = EigenModel.dirichlet_1d(8)
        for n in range(1, 9):
            pair = illposed_pair(model, n, 1.0)
            lam = model.eigenvalue(n)
            _, b_mp = mp_roots(lam, 1.0)
            expected_data = float(1 / abs(b_mp))
            expected_sol = float(abs(mp_mode_value(lam, 1.0, 1.0, 0.0) / abs(b_mp)))
            assert pair.data_norm == pytest.approx(expected_data, rel=1e-10)
            assert float(pair.solution_norm(0.0)) == pytest.approx(expected_sol, rel=1e-10)


class TestSelfConvergentReference:
    def make_instance(self, model, source, data_pairs, tau):
        from fvptrunc import SpectralField
        return FvpInstance(model=model, tau=tau, source=source,
                           final_data=SpectralField.from_coeffs(model, data_pairs))

    def ladder(self, level, steps, **kw):
        return [SolverConfig(level=level, n_steps=n, **kw) for n in steps]

    def test_linear_cross_validates_against_closed_form(self):
        model = EigenModel.dirichlet_1d(4)
        inst = self.make_instance(model, SourceFunction.linear(1.0), [(1, 1.0)], 1.0)
        ref = self_convergent_reference(inst, self.ladder(2, (128, 256, 512)))
        exact = closed_form_solution(model, 1, 1.0, 1.0, TimeGrid(1.0, 512))
        err = ref.trajectory.sup_distance(exact.trajectory)
        assert ref.provenance == "self_convergent"
        # pre-asymptotic refinement understates the estimate; 10x covers it
        assert err <= 10.0 * ref.error_estimate + 1e-12 * exact.trajectory.sup_norm()

    def test_zero_source_cross_validates(self):
        model = EigenModel.dirichlet_1d(4)
        inst = self.make_instance(model, SourceFunction.zero(), [(1, 1.0)], 1.0)
        ref = self_convergent_reference(inst, self.ladder(2, (128, 256, 512)))
        exact = closed_form_solution(model, 1, 0.0, 1.0, TimeGrid(1.0, 512))
        err = ref.trajectory.sup_distance(exact.trajectory)
        assert err <= 10.0 * ref.error_estimate + 1e-12 * exact.trajectory.sup_norm()

    def test_nonlinear_source_ladder_contracts(self):
        model = EigenModel.dirichlet_1d(4)
        inst = self.make_instance(model, SourceFunction.bounded_nonlinear("sin"),
                                  [(1, 0.2), (2, 1e-4)], 0.25)
        ref = self_convergent_reference(inst, self.ladder(2, (64, 128, 256)))
        assert ref.error_estimate < 1e-9
        assert np.array_equal(ref.trajectory.states[-1], ref.final_data.coeffs)

    def test_short_ladder_rejected(self):
        model = EigenModel.dirichlet_1d(4)
        inst = self.make_instance(model, SourceFunction.zero(), [(1, 1.0)], 1.0)
        with pytest.raises(ValueError):
            self_convergent_reference(inst, self.ladder(2, (128, 256)))

    def test_non_nested_ladder_rejected(self):
        model = EigenModel.dirichlet_1d(4)
        inst = self.make_instance(model, SourceFunction.zero(), [(1, 1.0)], 1.0)
        with pytest.raises(ValueError):
            self_convergent_reference(inst, self.ladder(2, (128, 192, 256)))

    def test_noisy_instance_rejected(self):
        from fvptrunc import SpectralField, add_noise
        model = EigenModel.dirichlet_1d(4)
        g = SpectralField.basis(model, 1)
        inst = FvpInstance(model=model, tau=1.0, source=SourceFunction.zero(),
                           final_data=g, noisy_data=add_noise(g, 0.1, seed=1),
                           delta=0.1)
        with pytest.raises(ValueError):
            self_convergent_reference(inst, self.ladder(2, (128, 256, 512)))

    def test_non_contracting_diffs_rejected(self):
        from fvptrunc.reference import check_ladder_contraction
        with pytest.raises(ReferenceRejectedError):
            check_ladder_contraction([1e-3, 5e-4], [2, 2])  # shrink 2 < 3
        # shrink 4 >= 3 passes; floor-level tails pass regardless
        check_ladder_contraction([1e-3, 2.5e-4], [2, 2])
        check_ladder_contraction([1e-3, 1e-15], [2, 2], floor=1e-14)

    def test_quadrupling_needs_ninefold_shrink(self):
        from fvptrunc.reference import check_ladder_contraction
        with pytest.raises(ReferenceRejectedError):
            check_ladder_contraction([1e-3, 1.5e-4], [4, 4])  # shrink 6.7 < 9
        check_ladder_contraction([1e-3, 1e-4], [4, 4])
