import math
import re

import numpy as np
import pytest

from fvptrunc import (ConfigError, EigenModel, ExponentOverflowError, FvpInstance,
                      NonConvergenceError, SolverConfig, SourceFunction,
                      SpectralField, TimeGrid, Trajectory, closed_form_solution,
                      fixed_point_defect, fixed_point_map, l2_norm, picard_solve)
from fvptrunc.quadrature import SCHEME_ORDER, backward_cumulative, exp_kernel_profile
from fvptrunc.solver import DEFAULT_PICARD_TOL, DEFAULT_QUADRATURE_ORDER
from fvptrunc.spectral import scaled_norm_rows
from oracle import apply_spectral_growth

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
        assert SourceFunction("sin").kappa == 1.0

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            SourceFunction("cubic")

    @pytest.mark.parametrize("kind", ["zero", "linear", "sin"])
    @pytest.mark.parametrize("c", [1.7, -2.5])
    def test_coefficient_wise_and_zero_at_zero(self, kind, c):
        # what lets the Picard loop leave the zero-data modes out
        source = SourceFunction(kind, c)
        zeros = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]])
        assert not np.any(source.apply(zeros))
        rows = np.random.default_rng(3).standard_normal((4, 9)) * [[1.0], [1e160], [1e-160], [3.0]]
        by_row = np.stack([source.apply(row) for row in rows])
        assert source.apply(rows).tobytes() == by_row.tobytes()

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficient_rejected(self, c):
        # c * 0 would be NaN, so F(0) = 0 would fail
        with pytest.raises(ValueError, match="must be finite"):
            SourceFunction.linear(c)

    @pytest.mark.parametrize("source", [SourceFunction.zero(),
                                        SourceFunction.linear(1.7),
                                        SourceFunction("sin")])
    def test_lipschitz_by_random_sampling(self, model, source):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = rng.standard_normal(model.mode_count) * rng.uniform(0.1, 10)
            b = rng.standard_normal(model.mode_count) * rng.uniform(0.1, 10)
            fa = source.apply(a)
            fb = source.apply(b)
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


class TestTimeGrid:
    @pytest.mark.parametrize("n_steps", [True, 2.5, 64.0, np.float64(64.0)])
    def test_non_integer_step_count_rejected_by_name(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an int"):
            TimeGrid(1.0, n_steps)

    def test_numpy_integer_step_count_accepted(self):
        assert TimeGrid(1.0, np.int64(8)).points.shape == (9,)

    @pytest.mark.parametrize("t", [1.0 + 1e-12, -1e-12, math.nan, math.inf, -math.inf,
                                   True, "0.5"])
    def test_index_of_refuses_t_outside_the_interval(self, t):
        # before any rounding: 1 + 1e-12 and -1e-12 lie within its tolerance
        rule = "lie in [0, tau = 1.0]" if t in (1.0 + 1e-12, -1e-12) else "be finite"
        with pytest.raises(ConfigError, match=f"^{re.escape(f't must {rule}, got {t!r}')}$"):
            TimeGrid(1.0, 128).index_of(t)

    def test_index_of_rounds_inside_the_interval(self):
        grid = TimeGrid(1.0, 128)
        assert grid.index_of(1.0 - 1e-12) == 128
        assert grid.index_of(1e-12) == 0
        assert grid.index_of(0.5) == 64
        with pytest.raises(ValueError, match="is not a grid point"):
            grid.index_of(0.5 + 1e-6)


class TestTrajectory:
    def test_states_are_mode_major(self, model):
        grid = TimeGrid(1.0, 64)
        states = np.random.default_rng(2).standard_normal((model.mode_count, 65))
        traj = Trajectory(grid, model, states)
        assert np.array_equal(traj.state(10).coeffs, states[:, 10])
        with pytest.raises(ValueError, match=r"\(mode_count, n_steps \+ 1\) = \(8, 65\)"):
            Trajectory(grid, model, states.T)

    def test_nested_grids_on_other_intervals_rejected(self, model):
        fine = Trajectory(TimeGrid(1.0, 64), model, np.ones((model.mode_count, 65)))
        coarse = Trajectory(TimeGrid(2.0, 32), model, np.ones((model.mode_count, 33)))
        for a, b in ((fine, coarse), (coarse, fine)):
            with pytest.raises(ValueError, match="different time intervals"):
                a.sup_distance(b)


class TestFixedPointMap:
    def test_at_final_time_projects_data(self, model):
        rng = np.random.default_rng(3)
        data = SpectralField(model, rng.standard_normal(model.mode_count))
        cfg = SolverConfig(level=3, n_steps=64)
        inst = make_instance(model, SourceFunction.linear(1.0), data)
        v = Trajectory(cfg.grid(1.0), model,
                       rng.standard_normal((65, model.mode_count)).T)
        out = fixed_point_map(v, inst, cfg, data)
        assert out.states[:3, -1] == pytest.approx(data.coeffs[:3], rel=1e-14)
        assert np.all(out.states[3:] == 0.0)

    def test_zero_source_zero_state_gives_leading_term(self, model):
        data = SpectralField.basis(model, 2)
        cfg = SolverConfig(level=2, n_steps=32)
        grid = cfg.grid(1.0)
        inst = make_instance(model, SourceFunction.zero(), data)
        zero = Trajectory(grid, model, np.zeros((model.mode_count, grid.n_steps + 1)))
        out = fixed_point_map(zero, inst, cfg, data)
        expected = np.exp(model.eigenvalue(2) * (1.0 - grid.points))
        assert out.states[1] == pytest.approx(expected, rel=1e-14)

    def test_closed_form_defect_shrinks_at_scheme_order(self, model):
        # the closed form is the exact fixed point; the defect is pure
        # quadrature error and must drop by 3/4 of 2^order per halving
        # (measured: 65x and 62x)
        defects = []
        for n in (100, 200, 400):
            grid = TimeGrid(1.0, n)
            ref = closed_form_solution(model, 1, 1.0, 1.0, grid)
            cfg = SolverConfig(level=1, n_steps=n)
            inst = make_instance(model, SourceFunction.linear(1.0), ref.final_data)
            defects.append(fixed_point_defect(ref.trajectory, inst, cfg, ref.final_data))
        rate = 0.75 * 2 ** SCHEME_ORDER[DEFAULT_QUADRATURE_ORDER]
        assert defects[0] / defects[1] >= rate
        assert defects[1] / defects[2] >= rate


class TestDefect:
    def test_zero_everything_has_zero_defect(self, model):
        data = SpectralField(model, np.zeros(model.mode_count))
        cfg = SolverConfig(level=2, n_steps=32)
        inst = make_instance(model, SourceFunction.zero(), data)
        v = Trajectory(cfg.grid(1.0), model, np.zeros((model.mode_count, cfg.n_steps + 1)))
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
        # the map iterated from zero reaches the fixed point picard_solve
        # reaches from the leading term
        data = SpectralField.basis(model, 1)
        cfg = SolverConfig(level=2, n_steps=256)
        inst = make_instance(model, SourceFunction.linear(1.0), data)
        from_lead = picard_solve(inst, cfg, data)
        v = Trajectory(cfg.grid(1.0), model, np.zeros((model.mode_count, cfg.n_steps + 1)))
        for _ in range(cfg.max_iters):
            nxt = fixed_point_map(v, inst, cfg, data)
            inc = nxt.sup_distance(v)
            v = nxt
            if inc <= cfg.picard_tol * (1.0 + v.sup_norm()):
                break
        else:
            pytest.fail("the map iterated from zero did not converge")
        dist = from_lead.trajectory.sup_distance(v)
        assert dist <= 10 * cfg.picard_tol * (1 + from_lead.trajectory.sup_norm())

    def test_mode_confinement(self, model):
        rng = np.random.default_rng(5)
        data = SpectralField(model, rng.standard_normal(model.mode_count))
        cfg = SolverConfig(level=3, n_steps=64)
        inst = make_instance(model, SourceFunction("sin"), data,
                             tau=0.25)
        res = picard_solve(inst, cfg, data)
        assert np.all(res.trajectory.states[3:] == 0.0)

    def test_linearity_for_zero_source(self, model):
        g1 = SpectralField.basis(model, 1)
        g2 = SpectralField.basis(model, 2)
        combo = SpectralField(model, 2.0 * g1.coeffs + 3.0 * g2.coeffs)
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

    def test_nonconvergence_carries_history(self, model):
        data = SpectralField.basis(model, 1)
        cfg = SolverConfig(level=2, n_steps=64, max_iters=2)
        inst = make_instance(model, SourceFunction.linear(1.0), data)
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(inst, cfg, data)
        assert len(exc.value.increments) == 2
        assert exc.value.defect > 0

    def test_converging_on_the_last_allowed_iteration_returns(self, model):
        # a solve that converges on exactly max_iters maps returns; one
        # iteration fewer raises with the increments it had and a defect
        data = SpectralField.from_coeffs(model, [(1, 1.0), (3, 0.5)])
        inst = make_instance(model, SourceFunction("sin"), data, tau=0.25)
        its = picard_solve(inst, SolverConfig(level=3, n_steps=64), data).iterations
        assert its >= 2
        last = picard_solve(inst, SolverConfig(level=3, n_steps=64, max_iters=its), data)
        assert last.iterations == its and len(last.increments) == its
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(inst, SolverConfig(level=3, n_steps=64, max_iters=its - 1), data)
        assert exc.value.increments == last.increments[:-1]
        assert math.isfinite(exc.value.defect) and exc.value.defect > 0.0

    @pytest.mark.parametrize("field, value", [
        ("level", 2.0), ("level", True), ("n_steps", 64.5), ("n_steps", np.float64(64.0)),
        ("max_iters", 10.0), ("max_iters", False)])
    def test_non_integer_counts_rejected_by_name(self, field, value):
        kw = {"level": 2, "n_steps": 64, "max_iters": 10, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            SolverConfig(**kw)

    def test_level_above_mode_count_rejected(self, model):
        data = SpectralField.basis(model, 1)
        inst = make_instance(model, SourceFunction.zero(), data)
        cfg = SolverConfig(level=model.mode_count + 1, n_steps=16)
        with pytest.raises(ConfigError, match=r"^level must be an int in 1\.\.8, got 9$"):
            picard_solve(inst, cfg, data)


# --------------------------------------------------------------------------
# Reference: the Picard loop on full-width (mode_count, n+1) arrays, every
# norm through scaled_norm_rows over the grid points, and the stop test on
# the exact norm of every iterate.  picard_solve, which carries only the N
# retained rows and reads the exact norm only when a bound of it passes the
# test, must match it bit for bit.

def full_width_lead(instance, cfg, data, grid):
    """G_N(tau - t) data on the full width; a zero datum gives its +-0 row,
    also where e^{lambda_j tau} leaves the double range."""
    out = np.zeros((instance.model.mode_count, grid.n_steps + 1))
    for j in range(cfg.level):
        c = data.coeffs[j]
        out[j] = c if c == 0.0 else np.exp(instance.model.lambdas[j] * (instance.tau - grid.points)) * c
    return out


def full_width_map(states, instance, cfg, data, grid):
    N = cfg.level
    lam = instance.model.lambdas[:N]
    F = instance.source.apply(states[:N])
    W = np.empty_like(F)
    for j in range(N):
        W[j] = backward_cumulative(grid.h, states[j])
    integrand = F + W
    out = full_width_lead(instance, cfg, data, grid)
    for j in range(N):
        out[j] -= exp_kernel_profile(lam[j], grid.h, integrand[j])
    return out


def sup_over_grid(x) -> float:
    return float(scaled_norm_rows(x.T).max())


def full_width_picard(instance, cfg, data):
    """(states, increments, iterations, defect, converged)."""
    grid = cfg.grid(instance.tau)
    v = full_width_lead(instance, cfg, data, grid)
    increments = []
    converged = False
    for its in range(1, cfg.max_iters + 1):
        nxt = full_width_map(v, instance, cfg, data, grid)
        inc = sup_over_grid(v - nxt)
        increments.append(inc)
        v = nxt
        if inc <= cfg.picard_tol * (1.0 + sup_over_grid(v)):
            converged = True
            break
    defect = sup_over_grid(v - full_width_map(v, instance, cfg, data, grid))
    return v, increments, its, defect, converged


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


SOURCES = {"zero": SourceFunction.zero(), "linear": SourceFunction.linear(1.0),
           "sin": SourceFunction("sin")}


class TestRetainedColumnLoop:
    """picard_solve against full_width_picard: same bits in every output,
    and a defect that is fixed_point_defect's bits."""

    @staticmethod
    def check(model, source, level, tau, max_iters=500, data_scale=1.0, seed=None,
              picard_tol=DEFAULT_PICARD_TOL, zeroed=(), zero=0.0):
        """Compare the two loops; the iterations, or None without convergence.
        The data of the 1-based modes `zeroed` are set to `zero`."""
        rng = np.random.default_rng(10 * level + len(source) if seed is None else seed)
        coeffs = data_scale * rng.standard_normal(model.mode_count)
        coeffs[[j - 1 for j in zeroed]] = zero
        data = SpectralField(model, coeffs)
        inst = make_instance(model, SOURCES[source], data, tau=tau)
        cfg = SolverConfig(level=level, n_steps=96, max_iters=max_iters, picard_tol=picard_tol)
        states, increments, its, defect, converged = full_width_picard(inst, cfg, data)
        if not converged:
            with pytest.raises(NonConvergenceError) as exc:
                picard_solve(inst, cfg, data)
            assert bits(exc.value.increments) == bits(increments)
            assert bits(exc.value.defect) == bits(defect)
            return None
        res = picard_solve(inst, cfg, data)
        assert res.iterations == its
        live = tuple(j for j in range(1, level + 1) if j not in zeroed)
        assert res.modes == (live or tuple(range(1, level + 1)))
        assert res.trajectory.states.tobytes() == states.tobytes()
        assert bits(res.increments) == bits(increments)
        assert bits(res.defect) == bits(defect)
        assert bits(res.defect) == bits(fixed_point_defect(res.trajectory, inst, cfg, data))
        return its

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("level", [1, 2, 4, 8])
    def test_from_the_leading_term(self, model, source, level):
        self.check(model, source, level, tau=0.25)

    @pytest.mark.parametrize("level", [1, 8])
    def test_rows_past_the_fast_norm_range(self, model, level):
        # the iterates pass 1e154, so their sums of squares overflow
        self.check(model, "linear", level, tau=0.25, data_scale=1e160)

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("level", [4, 6])
    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_zero_rows_outside_the_fast_norm_range(self, model, scale, level, source):
        # every grid point takes the scaled norm path; the zero rows that
        # pad the full-width loop must add exactly nothing there too
        self.check(model, source, level, tau=0.03, data_scale=scale, seed=0)

    def test_nonconvergence(self, model):
        self.check(model, "sin", 4, tau=0.25, max_iters=2)

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("zeroed", [(2, 4, 5), (1, 6), (1, 2, 3, 4, 5, 6)],
                             ids=["interior", "ends", "all"])
    def test_zero_data_modes(self, model, zeroed, zero, scale, source):
        # the loop leaves the zero-data modes out; each would add exactly
        # +0.0 to a grid point's sum of squares, on either norm path
        self.check(model, source, 6, tau=0.03, data_scale=scale, seed=0,
                   zeroed=zeroed, zero=zero)

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_data_modes_whose_growth_overflows(self, model, zero, scale, source):
        # e^{lambda_j tau} passes the double range for j >= 6 at tau = 2.5:
        # those modes hold zero data, so their rows are +-0 and no error
        assert model.lambdas[5] * 2.5 > 710
        self.check(model, source, 8, tau=2.5, data_scale=scale, seed=0,
                   zeroed=range(3, 9), zero=zero)

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_nonconvergence_with_zero_data_modes(self, model, zero, source):
        assert self.check(model, source, 6, tau=0.25, max_iters=2,
                          zeroed=(2, 4, 5), zero=zero) is None

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("tau", [0.03, 0.25])
    @pytest.mark.parametrize("picard_tol", [1e-13, 1e-11, 1e-6, 1.0, 1e3])
    def test_stop_test_at_every_tolerance(self, model, picard_tol, tau, source):
        # the loop tests a bound of ||v|| first and the exact norm only when
        # the bound passes; the reference tests the exact norm every time
        its = self.check(model, source, 4, tau, picard_tol=picard_tol)
        if picard_tol == 1e3:
            assert its == 1


class TestDefectOnTheRetainedRows:
    """picard_solve takes its defect on the N retained rows with its own
    leading term; fixed_point_defect rebuilds G_N(tau - t) g and differences
    the full-width trajectories.  Both must give the same bits."""

    MODES = 12
    TAU = 0.1  # e^{2 lambda_12 tau} stays in range: the kernel integral squares the growth

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("level", [1, 2, 4, 8, MODES])
    # picard_solve has no warm start, so with_initial is always False; the
    # axis stays so that the case ids ([False-N-source]) and data seeds do
    # not change
    @pytest.mark.parametrize("with_initial", [False])
    def test_defect_is_fixed_point_defect(self, source, level, with_initial):
        model = EigenModel.dirichlet_1d(self.MODES)
        rng = np.random.default_rng(level + 100 * with_initial + len(source))
        data = SpectralField(model, rng.standard_normal(model.mode_count))
        inst = make_instance(model, SOURCES[source], data, tau=self.TAU)
        cfg = SolverConfig(level=level, n_steps=96)
        res = picard_solve(inst, cfg, data)
        assert not np.any(res.trajectory.states[level:])
        assert bits(res.defect) == bits(fixed_point_defect(res.trajectory, inst, cfg, data))


class TestNormsAtSmallTau:
    """TestRetainedColumnLoop.check at small tau, where no mode dominates a
    grid point's sum of squares, so a change of summation order would show:
    the loop, full_width_picard and fixed_point_defect all sum a grid
    point's squares in mode order, so increments and defect are the same
    bits (well inside the mode_count * eps the test name promises)."""

    MODES = 12

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("level", [3, 5, 6, 7])
    @pytest.mark.parametrize("tau", [0.003, 0.01, 0.03])
    def test_norms_agree_to_mode_count_eps(self, tau, level, source):
        # tau 0.03, level 7, linear: the defects differ by 0.67 eps when
        # fixed_point_defect sums the squares in another order
        TestRetainedColumnLoop.check(EigenModel.dirichlet_1d(self.MODES), source, level,
                                     tau, seed=0)


class TestLazyDefect:
    """The defect costs one map more than the iterations; a converged solve
    runs it only when `defect` is read, and only once."""

    @staticmethod
    def counting_maps(monkeypatch) -> list:
        import fvptrunc.solver as solver
        calls = []
        original = solver._map_retained

        def counted(rows, *args):
            calls.append(rows.shape[0])
            return original(rows, *args)

        monkeypatch.setattr(solver, "_map_retained", counted)
        return calls

    def test_maps_run_only_for_a_read_defect(self, model, monkeypatch):
        data = SpectralField(model, np.random.default_rng(5).standard_normal(model.mode_count))
        inst = make_instance(model, SOURCES["sin"], data, tau=0.25)
        cfg = SolverConfig(level=3, n_steps=96)
        calls = self.counting_maps(monkeypatch)
        res = picard_solve(inst, cfg, data)
        assert len(calls) == res.iterations
        first = res.defect
        assert len(calls) == res.iterations + 1
        assert bits(res.defect) == bits(first)
        assert len(calls) == res.iterations + 1

    def test_nonconvergence_carries_the_defect(self, model, monkeypatch):
        data = SpectralField(model, np.random.default_rng(5).standard_normal(model.mode_count))
        inst = make_instance(model, SOURCES["sin"], data, tau=0.25)
        calls = self.counting_maps(monkeypatch)
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(inst, SolverConfig(level=3, n_steps=96, max_iters=2), data)
        assert len(calls) == 3 and exc.value.defect > 0.0


class TestLiveModes:
    """The loop maps only the retained modes that carry data, or all N
    when none does."""

    def test_level_four_maps_the_two_live_rows(self, model, monkeypatch):
        # acceptance criterion 1's phi_1 data, with noise in mode N alone
        coeffs = np.zeros(model.mode_count)
        coeffs[[0, 3]] = 1.0, 1e-6
        data = SpectralField(model, coeffs)
        inst = make_instance(model, SOURCES["sin"], data, tau=0.25)
        calls = TestLazyDefect.counting_maps(monkeypatch)
        res = picard_solve(inst, SolverConfig(level=4, n_steps=96), data)
        assert res.modes == (1, 4)
        assert calls == [2] * res.iterations

    def test_no_live_mode_carries_every_row(self, model):
        data = SpectralField(model, np.array([0.0, -0.0, 0.0, -0.0, 1.0, 1.0, 1.0, 1.0]))
        inst = make_instance(model, SOURCES["sin"], data, tau=0.25)
        res = picard_solve(inst, SolverConfig(level=4, n_steps=96), data)
        assert res.modes == (1, 2, 3, 4) and res.iterations == 1
        assert not np.any(res.trajectory.states)
        assert list(np.signbit(res.trajectory.states[:4, 0])) == [False, True, False, True]


class TestStepSizeDefect:
    #: (mode, tau, n_steps): lambda h = 0.35, 1.39, 2.78, 1.93, 3.86
    SWEEP = [(3, 1.0, 256), (3, 1.0, 64), (3, 1.0, 32), (5, 0.25, 32), (5, 0.25, 16)]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: the solve's accuracy depends on lambda_N h, and its "
        "iterates stop converging from lambda_N h ~ 2 and overflow soon after"))
    def test_error_does_not_depend_on_lambda_h(self):
        # the solver gives 5.5e-6, 5.0e-2, a range error, 0.31 and a range error
        errors = []
        for mode, tau, n in self.SWEEP:
            model = EigenModel.dirichlet_1d(mode)
            ref = closed_form_solution(model, mode, 1.0, tau, TimeGrid(tau, n))
            inst = make_instance(model, SourceFunction.linear(1.0), ref.final_data, tau=tau)
            try:
                res = picard_solve(inst, SolverConfig(level=mode, n_steps=n), ref.final_data)
            except ExponentOverflowError:
                errors.append(math.inf)
                continue
            errors.append(res.trajectory.sup_distance(ref.trajectory)
                          / ref.trajectory.sup_norm())
        assert max(errors) <= 1e-4, errors
