import math

import numpy as np
import pytest

from fvptrunc import (BoundInputs, ConfigError, DominanceSample, EigenModel,
                      ExponentOverflowError, FvpInstance, GevreyParams, SolverConfig,
                      SourceFunction, SpectralField, TimeGrid, add_noise, check_dominance,
                      choose_level, closed_form_solution, gevrey_norm, l2_norm, noise_bound,
                      picard_solve, total_bound, truncation_bound)
from oracle import apply_spectral_growth, gronwall_bound, gronwall_comparison_solution

PI2 = math.pi ** 2


@pytest.fixture(scope="module")
def model():
    return EigenModel.dirichlet_1d(8)


def binputs(model, **kw):
    base = dict(model=model, level=1, t=0.0, tau=1.0, delta=0.0, rho=1.0,
                kappa=1.0, regime="gevrey_q", q=0.5)
    base.update(kw)
    return BoundInputs(**base)


class TestGronwall:
    def test_zero_width_interval(self):
        assert gronwall_bound(3.0, 2.0, 1.0, 1.0) == 3.0

    def test_constant_function_is_dominated(self):
        # U = c0 satisfies the hypothesis, and c0 <= bound for all t
        for t in np.linspace(0.0, 1.0, 11):
            assert 3.0 <= gronwall_bound(3.0, 2.0, float(t), 1.0)

    def test_monotonicity(self):
        assert gronwall_bound(1.0, 1.0, 0.2, 1.0) > gronwall_bound(1.0, 1.0, 0.4, 1.0)
        assert gronwall_bound(1.0, 2.0, 0.2, 1.0) > gronwall_bound(1.0, 1.0, 0.2, 1.0)

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            gronwall_bound(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gronwall_bound(1.0, 1.0, 2.0, 1.0)

    def test_comparison_system_stays_below_bound(self):
        # U saturates the integral hypothesis with equality; the exact
        # solution sits below the bound with no slack, and equals it (c0)
        # at t = tau
        rng = np.random.default_rng(99)
        for _ in range(30):
            c0 = float(rng.uniform(0.05, 10.0))
            c1 = float(rng.uniform(0.05, 5.0))
            tau = float(rng.uniform(0.5, 2.0))
            pts, u = gronwall_comparison_solution(c0, c1, tau, n_steps=300)
            bound = c0 * np.exp((1.0 + c1) * (tau - pts))
            assert np.all(u <= bound)
            assert u[-1] == c0

    def test_closed_form_matches_an_ode_solve(self):
        # the proof's system X' = -c1 (X + Y), Y' = -X, integrated backward
        # from X(tau) = c0, Y(tau) = 0 by a high-order adaptive solver
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng(12)
        for _ in range(50):
            c0 = float(rng.uniform(0.05, 10.0))
            c1 = float(rng.uniform(0.05, 5.0))
            tau = float(rng.uniform(0.5, 2.0))
            pts, u = gronwall_comparison_solution(c0, c1, tau, n_steps=200)
            sol = solve_ivp(lambda t, xy: [-c1 * (xy[0] + xy[1]), -xy[0]], (tau, 0.0),
                            [c0, 0.0], t_eval=pts[::-1], method="DOP853",
                            rtol=1e-12, atol=1e-14)
            assert sol.success
            assert np.max(np.abs(u - sol.y[0][::-1]) / u) <= 1e-10

    def test_overflow_signalled(self):
        # e^1001 itself, and c0 e^600 with c0 = 1e300, leave the double range
        with pytest.raises(ExponentOverflowError):
            gronwall_bound(1.0, 1000.0, 0.0, 1.0)
        with pytest.raises(ExponentOverflowError):
            gronwall_bound(1e300, 1.0, 0.0, 300.0)
        # finite values are the plain product's, and c0 itself at t = tau
        assert gronwall_bound(1e-10, 708.5, 0.0, 1.0) == 1e-10 * math.exp(709.5)
        assert gronwall_bound(1e300, 1000.0, 1.0, 1.0) == 1e300

    def test_comparison_solution_overflow_signalled(self):
        with pytest.raises(ExponentOverflowError):
            gronwall_comparison_solution(1.0, 5.0, 200.0)

    def test_comparison_system_saturates_hypothesis(self):
        # verify X(t) = c0 + c1 int_t^tau (X + int_s^tau X) on the grid
        c0, c1, tau = 2.0, 1.5, 1.0
        pts, x = gronwall_comparison_solution(c0, c1, tau, n_steps=2000)
        h = pts[1] - pts[0]
        inner = np.concatenate([np.cumsum((0.5 * h * (x[:-1] + x[1:]))[::-1])[::-1], [0.0]])
        integrand = x + inner
        outer = np.concatenate([np.cumsum((0.5 * h * (integrand[:-1] + integrand[1:]))[::-1])[::-1], [0.0]])
        rhs = c0 + c1 * outer
        assert np.max(np.abs(x - rhs)) <= 1e-5 * np.max(np.abs(x))


CHOICE_FIELDS = ("rho", "delta", "t", "tau", "e1", "e2", "p", "q")
BOUND_FIELDS = ("t", "tau", "kappa", "p", "q")


def cinputs(**kw):
    base = dict(rho=1.0, delta=1e-3, t=0.0, tau=1.0, d=1,
                e1=PI2, e2=PI2, q=0.5)
    base.update(kw)
    return choose_level(**base)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("case", ["TimeGrid.tau", "FvpInstance.tau", "FvpInstance.delta",
                                  "SolverConfig.picard_tol", "add_noise.delta",
                                  "gronwall_bound.c0", "BoundInputs.delta", "BoundInputs.rho",
                                  "apply_spectral_growth.t", "GevreyParams.p", "GevreyParams.q"]
                         # choose_level's cases keep the ids they had when the rule
                         # read a ChoiceInputs, so results compare across commits by id
                         + [f"ChoiceInputs.{name}" for name in CHOICE_FIELDS]
                         + [f"BoundInputs.{name}" for name in BOUND_FIELDS])
def test_non_finite_input_rejected_by_name(model, case, bad):
    # each of these tested `x <= 0` alone, which NaN passes; choose_level's
    # inputs and BoundInputs failed later, in a rule or a bound, or not at all
    name = case.split(".")[1]
    g = SpectralField.basis(model, 1)
    calls = {
        "TimeGrid.tau": lambda: TimeGrid(bad, 10),
        "FvpInstance.tau": lambda: FvpInstance(model=model, tau=bad,
                                               source=SourceFunction.zero(), final_data=g),
        "FvpInstance.delta": lambda: FvpInstance(model=model, tau=1.0, delta=bad,
                                                 source=SourceFunction.zero(), final_data=g),
        "SolverConfig.picard_tol": lambda: SolverConfig(level=1, n_steps=16, picard_tol=bad),
        "add_noise.delta": lambda: add_noise(g, bad),
        "gronwall_bound.c0": lambda: gronwall_bound(bad, 1.0, 0.0, 1.0),
        "BoundInputs.delta": lambda: binputs(model, delta=bad),
        "BoundInputs.rho": lambda: binputs(model, rho=bad),
        "apply_spectral_growth.t": lambda: apply_spectral_growth(bad, g, 2),
        "GevreyParams.p": lambda: GevreyParams(bad, 0.0),
        "GevreyParams.q": lambda: GevreyParams(0.0, bad),
    }
    calls.update({f"ChoiceInputs.{field}": lambda field=field: cinputs(**{field: bad})
                  for field in CHOICE_FIELDS})
    calls.update({f"BoundInputs.{field}": lambda field=field: binputs(model, **{field: bad})
                  for field in BOUND_FIELDS})
    with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
        calls[case]()


@pytest.mark.parametrize("kappa", [-1.0, -1e-300])
def test_negative_kappa_rejected(model, kappa):
    # kappa0 = max(kappa, 1) used to read a negative Lipschitz constant as 1
    with pytest.raises(ValueError, match=r"\bkappa must be finite and >= 0"):
        binputs(model, kappa=kappa)
    assert binputs(model, kappa=0.0).kappa0 == 1.0


class TestBoundFormulas:
    def test_truncation_at_final_time_gevrey_p(self, model):
        b = binputs(model, regime="gevrey_p", p=1.0, q=0.0, t=1.0, level=2, rho=2.0)
        lam2 = model.eigenvalue(2)
        # about 4e-19, far below pytest.approx's default abs tolerance
        assert truncation_bound(b) == pytest.approx(2.0 * lam2 ** -1.0 * math.exp(-lam2),
                                                    rel=1e-12, abs=0.0)

    def test_truncation_frozen_value(self, model):
        # N=2, p=1, rho=1, t=0, tau=1, kappa0=1: e^2 / (4 pi^2)
        b = binputs(model, regime="gevrey_p", p=1.0, q=0.0, level=2)
        assert truncation_bound(b) == pytest.approx(math.exp(2.0) / (4.0 * PI2), rel=1e-12)

    def test_truncation_frozen_value_inside_the_interval_gevrey_p(self, model):
        # N=2, p=1, rho=1, t=1/4, tau=1, kappa0=1:
        # e^{2 (3/4)} (4 pi^2)^{-1} e^{-4 pi^2 / 4} = e^{3/2 - pi^2} / (4 pi^2)
        b = binputs(model, regime="gevrey_p", p=1.0, q=0.0, level=2, t=0.25)
        assert truncation_bound(b) == pytest.approx(math.exp(1.5 - PI2) / (4.0 * PI2),
                                                    rel=1e-12, abs=0.0)

    def test_truncation_frozen_value_inside_the_interval_gevrey_q(self, model):
        # N=2, q=1/2, rho=1, t=1/4, tau=1, kappa0=1:
        # e^{2 (3/4)} e^{-(1/2 + 1/4) 4 pi^2} = e^{3/2 - 3 pi^2}
        b = binputs(model, level=2, t=0.25)
        # about 6e-13: pytest.approx's default abs tolerance, 1e-12, would pass any value
        assert truncation_bound(b) == pytest.approx(math.exp(1.5 - 3.0 * PI2), rel=1e-12,
                                                    abs=0.0)

    def test_truncation_decreases_in_level(self, model):
        for regime, p, q in (("gevrey_p", 1.0, 0.0), ("gevrey_q", 0.0, 0.5)):
            vals = [truncation_bound(binputs(model, regime=regime, p=p, q=q, level=n))
                    for n in range(1, 6)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_gevrey_q_decreases_in_q(self, model):
        lo = truncation_bound(binputs(model, q=0.5))
        hi = truncation_bound(binputs(model, q=0.25))
        assert lo < hi

    def test_mixed_regime_rejected(self, model):
        with pytest.raises(ConfigError):
            binputs(model, regime="gevrey_p", p=1.0, q=0.5)
        with pytest.raises(ConfigError):
            binputs(model, regime="gevrey_q", p=1.0, q=0.5)
        with pytest.raises(ConfigError):
            binputs(model, regime="gevrey_p", p=0.0, q=0.0)

    def test_noise_bound_trivial_cases(self, model):
        assert noise_bound(binputs(model, delta=0.0)) == 0.0
        assert noise_bound(binputs(model, delta=0.5, t=1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_noise_bound_frozen_value(self, model):
        # N=1, t=0, tau=1, kappa0=1, delta=1e-6: 1e-6 e^{pi^2} e^2
        b = binputs(model, delta=1e-6)
        assert noise_bound(b) == pytest.approx(1e-6 * math.exp(PI2) * math.exp(2.0),
                                               rel=1e-12)

    def test_noise_bound_overflow_signalled(self, model):
        b = binputs(model, delta=1.0, level=8, tau=1.2, q=0.5)
        with pytest.raises(ExponentOverflowError):
            noise_bound(b)

    def test_total_is_sum_and_monotone_in_delta(self, model):
        b0 = binputs(model, delta=0.0)
        assert total_bound(b0) == truncation_bound(b0)
        deltas = [10.0 ** -k for k in range(4, 13)]
        vals = [total_bound(binputs(model, delta=d)) for d in deltas]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(truncation_bound(b0), rel=1e-3)

    def test_interior_minimizer_in_level_for_small_delta(self, model):
        vals = [total_bound(binputs(model, delta=1e-30, level=n))
                for n in range(1, model.mode_count + 1)]
        k = int(np.argmin(vals))
        assert 0 < k < len(vals) - 1  # strictly interior


class TestDominance:
    def test_trivial_no_truncation(self, model):
        # reference mode inside the kept band: measured error is pure
        # quadrature noise, margin is enormous
        grid = TimeGrid(1.0, 256)
        ref = closed_form_solution(model, 1, 1.0, 1.0, grid)
        gp = GevreyParams(0.0, 1.5)
        rho = 1.01 * max(gevrey_norm(ref.trajectory.state(i), gp)
                         for i in range(grid.n_steps + 1))
        inst = FvpInstance(model=model, tau=1.0, source=SourceFunction.linear(1.0),
                           final_data=ref.final_data)
        res = picard_solve(inst, SolverConfig(level=2, n_steps=256), ref.final_data)
        err = res.trajectory.sup_distance(ref.trajectory)
        b = binputs(model, level=2, rho=rho)
        report = check_dominance([DominanceSample(inputs=b, measured=err, slack=0.0)])
        assert report.ok and report.min_margin > 1.0

    def test_truncated_reference_mode(self, model):
        # reference mode beyond the kept band: the error at t is exactly
        # |u_n(t)|, which the truncation bound must dominate
        grid = TimeGrid(1.0, 256)
        n = 2
        ref = closed_form_solution(model, n, 1.0, 1.0, grid)
        gp = GevreyParams(0.0, 1.5)
        rho = 1.01 * max(gevrey_norm(ref.trajectory.state(i), gp)
                         for i in range(grid.n_steps + 1))
        samples = []
        for idx in (0, 128, 256):
            t = float(grid.points[idx])
            measured = abs(ref.trajectory.states[n - 1, idx])
            samples.append(DominanceSample(
                inputs=binputs(model, level=1, t=t, rho=rho), measured=measured))
        report = check_dominance(samples)
        assert report.ok

    def test_worst_case_noise_amplification_below_bound(self, model):
        # noise along phi_N amplifies by ~e^{lambda_N (tau-t)}; the bound
        # carries the extra Gronwall factor e^{kappa1 (tau-t)}
        N, delta = 2, 1e-6
        grid = TimeGrid(1.0, 256)
        ref = closed_form_solution(model, 1, 1.0, 1.0, grid)
        g = ref.final_data
        noisy = add_noise(g, delta, "worst_case_mode", mode=N)
        inst = FvpInstance(model=model, tau=1.0, source=SourceFunction.linear(1.0),
                           final_data=g, noisy_data=noisy, delta=delta)
        cfg = SolverConfig(level=N, n_steps=256)
        exact_res = picard_solve(inst, cfg, g)
        noisy_res = picard_solve(inst, cfg, noisy)
        for idx in (0, 128):
            t = float(grid.points[idx])
            measured = l2_norm(noisy_res.trajectory.state(idx)
                               - exact_res.trajectory.state(idx))
            bound = noise_bound(binputs(model, level=N, t=t, delta=delta))
            amplification = delta * math.exp(model.eigenvalue(N) * (1.0 - t))
            assert measured <= bound
            # the true dynamics amplify by e^{|beta_N| (tau-t)}, within a
            # Gronwall-scale factor of the bound's e^{lambda_N (tau-t)}
            assert abs(math.log(measured / amplification)) <= 2.5

    def test_violations_are_reported(self, model):
        b = binputs(model, level=1, rho=1.0)
        bad = DominanceSample(inputs=b, measured=total_bound(b) * 2.0, slack=0.0)
        good = DominanceSample(inputs=b, measured=0.0, slack=0.0)
        report = check_dominance([bad, good])
        assert not report.ok
        assert report.violations == (bad,)
        assert report.total == 2

    @pytest.mark.parametrize("field", ["measured", "slack"])
    def test_nan_is_a_violation(self, model, field):
        # a solve that produced a NaN error dominates nothing
        b = binputs(model, level=1, rho=1.0)
        nan = DominanceSample(inputs=b, **{"measured": 0.0, "slack": 0.0, field: math.nan})
        good = DominanceSample(inputs=b, measured=0.0, slack=0.0)
        report = check_dominance([good, nan, good])
        assert not report.ok
        assert report.violations == (nan,)
        assert math.isnan(report.min_margin)
