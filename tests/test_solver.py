import math

import numpy as np
import pytest

from fvptrunc import (EigenModel, ExponentOverflowError, FvpInstance,
                      NonConvergenceError, SolverConfig, SourceFunction,
                      SpectralField, TimeGrid, Trajectory, apply_spectral_growth,
                      closed_form_solution, fixed_point_defect, fixed_point_map,
                      l2_norm, picard_solve)
from fvptrunc.quadrature import backward_cumulative, exp_kernel_profile
from fvptrunc.spectral import scaled_norm_rows

PI2 = math.pi ** 2


@pytest.fixture(scope="module")
def model():
    return EigenModel.dirichlet_1d(8)


def make_instance(model, source, data, tau=1.0, **kw):
    return FvpInstance(model=model, tau=tau, source=source, final_data=data, **kw)


class TestSourceFunction:
    def test_kappa_values(self):
        assert SourceFunction.zero().kappa == 0.0
        assert SourceFunction.linear(-2.5).kappa == 2.5
        assert SourceFunction.bounded_nonlinear("sin").kappa == 1.0

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            SourceFunction("cubic")
        with pytest.raises(ValueError):
            SourceFunction.bounded_nonlinear("tanh")

    @pytest.mark.parametrize("source", [SourceFunction.zero(),
                                        SourceFunction.linear(1.7),
                                        SourceFunction.bounded_nonlinear("sin")])
    def test_lipschitz_by_random_sampling(self, model, source):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = rng.standard_normal(model.mode_count) * rng.uniform(0.1, 10)
            b = rng.standard_normal(model.mode_count) * rng.uniform(0.1, 10)
            fa = source.apply(0.0, a)
            fb = source.apply(0.0, b)
            lhs = np.linalg.norm(fa - fb)
            rhs = source.kappa * np.linalg.norm(a - b)
            assert lhs <= rhs * (1 + 1e-12)


class TestSpectralGrowth:
    def test_zero_time_is_projection(self, model):
        rng = np.random.default_rng(1)
        psi = SpectralField(model, rng.standard_normal(model.mode_count))
        out = apply_spectral_growth(0.0, psi, 3)
        assert np.array_equal(out.coeffs[:3], psi.coeffs[:3])
        assert np.all(out.coeffs[3:] == 0.0)

    def test_single_mode_attains_operator_norm(self, model):
        t, N = 0.7, 4
        out = apply_spectral_growth(t, SpectralField.basis(model, N), N)
        expected = math.exp(model.eigenvalue(N) * t)
        assert l2_norm(out) == pytest.approx(expected, rel=1e-12)

    def test_mode_beyond_level_truncated(self, model):
        out = apply_spectral_growth(0.5, SpectralField.basis(model, 4), 3)
        assert l2_norm(out) == 0.0

    def test_operator_norm_bound_random(self, model):
        rng = np.random.default_rng(2)
        for _ in range(300):
            N = int(rng.integers(1, 5))
            t = float(rng.uniform(0.0, 1.0))
            psi = SpectralField(model, rng.standard_normal(model.mode_count))
            out = apply_spectral_growth(t, psi, N)
            bound = math.exp(model.eigenvalue(N) * t) * l2_norm(psi)
            assert l2_norm(out) <= bound * (1 + 1e-12)

    def test_overflow_names_the_mode(self, model):
        psi = SpectralField.basis(model, 8)
        with pytest.raises(ExponentOverflowError, match="lambda_8"):
            apply_spectral_growth(2.0, psi, 8)

    def test_overflowing_factor_on_zero_coefficient_is_harmless(self, model):
        psi = SpectralField.basis(model, 1)  # mode 8 coefficient is zero
        out = apply_spectral_growth(2.0, psi, 8)
        assert out.coeffs[0] == pytest.approx(math.exp(PI2 * 2.0), rel=1e-13)


class TestFixedPointMap:
    def test_at_final_time_projects_data(self, model):
        rng = np.random.default_rng(3)
        data = SpectralField(model, rng.standard_normal(model.mode_count))
        cfg = SolverConfig(level=3, n_steps=64)
        inst = make_instance(model, SourceFunction.linear(1.0), data)
        v = Trajectory(cfg.grid(1.0), model,
                       rng.standard_normal((65, model.mode_count)))
        out = fixed_point_map(v, inst, cfg, data)
        assert out.states[-1, :3] == pytest.approx(data.coeffs[:3], rel=1e-14)
        assert np.all(out.states[:, 3:] == 0.0)

    def test_zero_source_zero_state_gives_leading_term(self, model):
        data = SpectralField.basis(model, 2)
        cfg = SolverConfig(level=2, n_steps=32)
        grid = cfg.grid(1.0)
        inst = make_instance(model, SourceFunction.zero(), data)
        out = fixed_point_map(Trajectory.zero(grid, model), inst, cfg, data)
        expected = np.exp(model.eigenvalue(2) * (1.0 - grid.points))
        assert out.states[:, 1] == pytest.approx(expected, rel=1e-14)

    def test_closed_form_defect_shrinks_at_scheme_order(self, model):
        # the closed form is the exact fixed point; the defect is pure
        # quadrature error and must drop >= 3.5x per halving
        defects = []
        for n in (100, 200, 400):
            grid = TimeGrid(1.0, n)
            ref = closed_form_solution(model, 1, 1.0, 1.0, grid)
            cfg = SolverConfig(level=1, n_steps=n)
            inst = make_instance(model, SourceFunction.linear(1.0), ref.final_data)
            defects.append(fixed_point_defect(ref.trajectory, inst, cfg, ref.final_data))
        assert defects[0] / defects[1] >= 3.5
        assert defects[1] / defects[2] >= 3.5

    def test_order2_defect_shrinks_fourfold(self, model):
        defects = []
        for n in (500, 1000, 2000):
            grid = TimeGrid(1.0, n)
            ref = closed_form_solution(model, 1, 1.0, 1.0, grid)
            cfg = SolverConfig(level=1, n_steps=n, quadrature_order=2)
            inst = make_instance(model, SourceFunction.linear(1.0), ref.final_data)
            defects.append(fixed_point_defect(ref.trajectory, inst, cfg, ref.final_data))
        assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.15)
        assert defects[1] / defects[2] == pytest.approx(4.0, rel=0.15)


class TestDefect:
    def test_zero_everything_has_zero_defect(self, model):
        data = SpectralField.zero(model)
        cfg = SolverConfig(level=2, n_steps=32)
        inst = make_instance(model, SourceFunction.zero(), data)
        v = Trajectory.zero(cfg.grid(1.0), model)
        assert fixed_point_defect(v, inst, cfg, data) == 0.0

    def test_grid_endpoints_and_spacing(self):
        grid = TimeGrid(2.0, 8)
        assert grid.points[0] == 0.0 and grid.points[-1] == 2.0
        assert np.allclose(np.diff(grid.points), grid.h)


class TestPicard:
    def test_matches_closed_form_linear(self, model):
        grid = TimeGrid(1.0, 1000)
        ref = closed_form_solution(model, 1, 1.0, 1.0, grid)
        inst = make_instance(model, SourceFunction.linear(1.0), ref.final_data)
        cfg = SolverConfig(level=4, n_steps=1000)
        res = picard_solve(inst, cfg, ref.final_data)
        assert res.trajectory.sup_distance(ref.trajectory) <= 5e-8
        assert res.defect <= res.trajectory.sup_norm() * 1e-10
        # the stopping rule's certificate
        assert res.defect <= cfg.picard_tol * (1.0 + res.trajectory.sup_norm())

    def test_matches_closed_form_zero_source(self, model):
        grid = TimeGrid(1.0, 1000)
        ref = closed_form_solution(model, 1, 0.0, 1.0, grid)
        inst = make_instance(model, SourceFunction.zero(), ref.final_data)
        res = picard_solve(inst, SolverConfig(level=2, n_steps=1000), ref.final_data)
        assert res.trajectory.sup_distance(ref.trajectory) <= 5e-8

    def test_noisy_path_with_exact_data_is_bit_identical(self, model):
        # delta = 0 passed through the 'noisy' argument: same map, same bits
        data = SpectralField.basis(model, 1)
        inst_exact = make_instance(model, SourceFunction.linear(1.0), data)
        inst_noisy = make_instance(model, SourceFunction.linear(1.0), data,
                                   noisy_data=data, delta=0.0)
        cfg = SolverConfig(level=2, n_steps=128)
        a = picard_solve(inst_exact, cfg, data)
        b = picard_solve(inst_noisy, cfg, inst_noisy.noisy_data)
        assert np.array_equal(a.trajectory.states, b.trajectory.states)

    def test_fixed_point_unique_across_initial_guesses(self, model):
        data = SpectralField.basis(model, 1)
        cfg = SolverConfig(level=2, n_steps=256)
        inst = make_instance(model, SourceFunction.linear(1.0), data)
        from_lead = picard_solve(inst, cfg, data)
        from_zero = picard_solve(inst, cfg, data,
                                 initial=Trajectory.zero(cfg.grid(1.0), model))
        dist = from_lead.trajectory.sup_distance(from_zero.trajectory)
        assert dist <= 10 * cfg.picard_tol * (1 + from_lead.trajectory.sup_norm())

    def test_mode_confinement(self, model):
        rng = np.random.default_rng(5)
        data = SpectralField(model, rng.standard_normal(model.mode_count))
        cfg = SolverConfig(level=3, n_steps=64)
        inst = make_instance(model, SourceFunction.bounded_nonlinear("sin"), data,
                             tau=0.25)
        res = picard_solve(inst, cfg, data)
        assert np.all(res.trajectory.states[:, 3:] == 0.0)

    def test_linearity_for_zero_source(self, model):
        g1 = SpectralField.basis(model, 1)
        g2 = SpectralField.basis(model, 2)
        combo = 2.0 * g1 + 3.0 * g2
        cfg = SolverConfig(level=2, n_steps=256)

        def solve(g):
            inst = make_instance(model, SourceFunction.zero(), g)
            return picard_solve(inst, cfg, g).trajectory

        lhs = solve(combo)
        rhs = 2.0 * solve(g1).states + 3.0 * solve(g2).states
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.max(np.abs(lhs.states - rhs)) <= 1e-9 * scale

    def test_contraction_sets_in(self, model):
        # windowed geometric mean of increment ratios eventually drops
        # below 1 (single ratios may exceed 1 early on)
        data = SpectralField.basis(model, 1)
        cfg = SolverConfig(level=4, n_steps=256, picard_tol=1e-13)
        inst = make_instance(model, SourceFunction.linear(1.0), data)
        res = picard_solve(inst, cfg, data)
        inc = np.array([i for i in res.increments if i > 0])
        ratios = inc[1:] / inc[:-1]
        window = 4
        geo = [float(np.exp(np.mean(np.log(ratios[i:i + window]))))
               for i in range(len(ratios) - window + 1)]
        assert geo[-1] < 1.0

    def test_apriori_contraction_diagnostic_reported(self, model):
        data = SpectralField.basis(model, 1)
        inst = make_instance(model, SourceFunction.linear(1.0), data)
        res = picard_solve(inst, SolverConfig(level=1, n_steps=64), data)
        x = math.exp(PI2) * 2.0  # kappa0 e^{lam_1 tau} (1+tau) tau
        assert res.apriori_contraction_m == pytest.approx(math.e * x, rel=0.05)

    def test_nonconvergence_carries_history(self, model):
        data = SpectralField.basis(model, 1)
        cfg = SolverConfig(level=2, n_steps=64, max_iters=2)
        inst = make_instance(model, SourceFunction.linear(1.0), data)
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(inst, cfg, data)
        assert len(exc.value.increments) == 2
        assert exc.value.defect > 0

    def test_level_above_mode_count_rejected(self, model):
        data = SpectralField.basis(model, 1)
        inst = make_instance(model, SourceFunction.zero(), data)
        cfg = SolverConfig(level=model.mode_count + 1, n_steps=16)
        with pytest.raises(ValueError, match="exceeds the model mode count"):
            picard_solve(inst, cfg, data)
        with pytest.raises(ValueError, match="exceeds the model mode count"):
            picard_solve(inst, cfg, data, initial=Trajectory.zero(cfg.grid(1.0), model))


# --------------------------------------------------------------------------
# Reference: the Picard loop on full-width (n+1, mode_count) arrays, every
# norm through scaled_norm_rows.  picard_solve, which carries only the N
# retained columns, must match it bit for bit.

def full_width_map(states, instance, cfg, data, grid):
    N, order, pts = cfg.level, cfg.quadrature_order, grid.points
    lam = instance.model.lambdas[:N]
    F = instance.source.apply(pts, states[:, :N])
    W = np.empty_like(F)
    for j in range(N):
        W[:, j] = backward_cumulative(grid.h, states[:, j], order)
    integrand = F + W
    out = np.zeros_like(states)
    out[:, :N] = np.exp(np.outer(instance.tau - pts, lam)) * data.coeffs[:N]
    for j in range(N):
        out[:, j] -= exp_kernel_profile(lam[j], grid.h, integrand[:, j], order)
    return out


def full_width_picard(instance, cfg, data, initial=None):
    """(states, increments, iterations, defect, converged)."""
    grid = cfg.grid(instance.tau)
    N = cfg.level
    if initial is None:
        v = np.zeros((grid.n_steps + 1, instance.model.mode_count))
        v[:, :N] = np.exp(np.outer(instance.tau - grid.points,
                                   instance.model.lambdas[:N])) * data.coeffs[:N]
    else:
        v = initial.states
    increments = []
    converged = False
    for its in range(1, cfg.max_iters + 1):
        nxt = full_width_map(v, instance, cfg, data, grid)
        inc = float(scaled_norm_rows(v - nxt).max())
        increments.append(inc)
        v = nxt
        if inc <= cfg.picard_tol * (1.0 + float(scaled_norm_rows(v).max())):
            converged = True
            break
    defect = float(scaled_norm_rows(v - full_width_map(v, instance, cfg, data, grid)).max())
    return v, increments, its, defect, converged


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


SOURCES = {"zero": SourceFunction.zero(), "linear": SourceFunction.linear(1.0),
           "sin": SourceFunction.bounded_nonlinear("sin")}


class TestRetainedColumnLoop:
    """picard_solve against full_width_picard: same bits in every output."""

    @staticmethod
    def check(model, source, level, tau, initial_scale=None, max_iters=500, data_scale=1.0):
        rng = np.random.default_rng(10 * level + len(source))
        data = SpectralField(model, data_scale * rng.standard_normal(model.mode_count))
        inst = make_instance(model, SOURCES[source], data, tau=tau)
        cfg = SolverConfig(level=level, n_steps=96, max_iters=max_iters)
        initial = None
        if initial_scale is not None:
            initial = Trajectory(cfg.grid(tau), model, initial_scale
                                 * rng.standard_normal((97, model.mode_count)))
        states, increments, its, defect, converged = full_width_picard(
            inst, cfg, data, initial)
        if not converged:
            with pytest.raises(NonConvergenceError) as exc:
                picard_solve(inst, cfg, data, initial=initial)
            assert bits(exc.value.increments) == bits(increments)
            assert bits(exc.value.defect) == bits(defect)
            return
        res = picard_solve(inst, cfg, data, initial=initial)
        assert res.iterations == its
        assert res.trajectory.states.tobytes() == states.tobytes()
        assert bits(res.increments) == bits(increments)
        assert bits(res.defect) == bits(defect)

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("level", [1, 2, 4, 8])
    def test_from_the_leading_term(self, model, source, level):
        self.check(model, source, level, tau=0.25)

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("level", [1, 2, 4])
    def test_from_an_initial_guess_with_modes_above_the_level(self, model, source, level):
        # the first increment counts the modes the map drops: scale 1e6
        # makes them the largest part of it
        self.check(model, source, level, tau=0.25, initial_scale=1e6)

    @pytest.mark.parametrize("level", [1, 8])
    def test_rows_past_the_fast_norm_range(self, model, level):
        # the iterates pass 1e154, so their sums of squares overflow
        self.check(model, "linear", level, tau=0.25, data_scale=1e160)

    def test_nonconvergence(self, model):
        self.check(model, "sin", 4, tau=0.25, max_iters=2)



class TestDefectOnTheRetainedRows:
    """picard_solve takes its defect on the N retained rows with its own
    leading term; fixed_point_defect rebuilds G_N(tau - t) g and differences
    the full-width trajectories.  Both must give the same bits."""

    MODES = 12
    TAU = 0.1  # e^{2 lambda_12 tau} stays in range: the kernel integral squares the growth

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("level", [1, 2, 4, 8, MODES])
    @pytest.mark.parametrize("with_initial", [False, True])
    def test_defect_is_fixed_point_defect(self, source, level, with_initial):
        model = EigenModel.dirichlet_1d(self.MODES)
        rng = np.random.default_rng(level + 100 * with_initial + len(source))
        data = SpectralField(model, rng.standard_normal(model.mode_count))
        inst = make_instance(model, SOURCES[source], data, tau=self.TAU)
        cfg = SolverConfig(level=level, n_steps=96)
        initial = None
        if with_initial:
            # nonzero in every mode, the modes above the level included
            initial = Trajectory(cfg.grid(self.TAU), model,
                                 rng.standard_normal((97, model.mode_count)))
        res = picard_solve(inst, cfg, data, initial=initial)
        assert not np.any(res.trajectory.states[:, level:])
        assert bits(res.defect) == bits(fixed_point_defect(res.trajectory, inst, cfg, data))
