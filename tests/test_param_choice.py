import math
import sys

import numpy as np
import pytest

from fvptrunc import (BoundInputs, BracketError, ChoiceInputs, EigenModel,
                      NoiseTooLargeError, choose_level, choose_n_holder,
                      choose_n_log, holder_bound_staircase, log_total_bound, zeta,
                      zeta_inverse)

PI2 = math.pi ** 2


def log_inputs(delta, p=1.0, rho=1.0, t=0.0, tau=1.0):
    return ChoiceInputs(regime="log_rule", rho=rho, delta=delta, t=t, tau=tau,
                        d=1, e1=PI2, e2=PI2, p=p)


def holder_inputs(delta, q=0.5, rho=1.0, t=0.0, tau=1.0):
    return ChoiceInputs(regime="holder_rule", rho=rho, delta=delta, t=t, tau=tau,
                        d=1, e1=PI2, e2=PI2, q=q)


class TestZetaInverse:
    def test_inverse_property_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            b = float(rng.uniform(0.3, 3.0))
            c = float(rng.uniform(0.1, 2.0))
            d = float(rng.uniform(0.2, 4.0))
            sigma = float(rng.uniform(1e-12, 0.4))
            s = zeta(sigma, b, c, d)
            inv = zeta_inverse(s, b, c, d)
            assert zeta(inv.root, b, c, d) == pytest.approx(s, rel=1e-12)

    def test_pure_power_when_c_is_zero(self):
        inv = zeta_inverse(1e-6, 2.0, 0.0, 1.0)
        assert inv.root == 1e-3
        assert inv.asymptotic == inv.root

    def test_zeta_is_the_pure_power_when_c_is_zero(self):
        # at c = 0 the log factor is x ** -0.0, which is 1.0 for every x
        # (0, inf and NaN too), so zeta is s ** b bit for bit, also where
        # 1/s overflows to inf
        rng = np.random.default_rng(47)
        ss = [5e-324, 1e-310, sys.float_info.min, 0.5, 1.0 - 2.0 ** -53]
        ss += [float(x) for x in rng.uniform(0.0, 1.0, 100)]
        ss += [float(10.0 ** x) for x in rng.uniform(-323.0, 0.0, 100)]
        assert sum(1.0 / s == math.inf for s in ss) >= 3
        for s in ss:
            b, d = (float(x) for x in rng.uniform(0.1, 4.0, 2))
            assert np.float64(zeta(s, b, 0.0, d)).tobytes() == np.float64(s ** b).tobytes()

    def test_asymptotic_agreement_improves_monotonically(self):
        # b = c = dcoef = 1: ~18% off at s = 1e-8, converging to 1 from above
        devs = []
        for k in range(8, 32, 4):
            inv = zeta_inverse(10.0 ** -k, 1.0, 1.0, 1.0)
            ratio = inv.asymptotic / inv.root
            devs.append(abs(ratio - 1.0))
        assert devs[0] <= 0.20
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(BracketError):
            zeta_inverse(0.9, 1.0, 1.0, 1.0, a=0.5)  # above zeta(a)
        with pytest.raises(ValueError):
            zeta_inverse(1e-3, -1.0, 1.0, 1.0)


class TestLogRule:
    def test_frozen_regression(self):
        # direct evaluation of the rule at delta = 1e-12, p = 1, rho = 1
        choice = choose_n_log(log_inputs(1e-12))
        big_l = math.log(1e12)
        manual = math.sqrt((big_l - math.log(big_l / PI2)) / PI2)
        assert choice.raw == pytest.approx(manual, rel=1e-14)
        assert choice.raw == pytest.approx(1.6417367941105772, rel=1e-13)
        assert choice.level == 1

    def test_monotone_and_unbounded_in_shrinking_delta(self):
        levels = [choose_n_log(log_inputs(math.exp(-ld))).level
                  for ld in (5, 30, 60, 120, 240, 480)]
        assert all(b >= a for a, b in zip(levels, levels[1:]))
        assert levels[-1] >= 5

    def test_noise_too_large_rejected(self):
        # heavy smoothness weight flips the inner logarithm argument below 1
        with pytest.raises(NoiseTooLargeError):
            choose_n_log(log_inputs(math.exp(-15.0), p=50.0))
        with pytest.raises(NoiseTooLargeError):
            log_inputs(2.0)  # delta >= rho

    def test_p_to_zero_limit_matches_holder_q_zero(self):
        # at p = 0 the log rule reduces to the holder rule with q = 0
        delta = 1e-10
        lvl_log = choose_n_log(log_inputs(delta, p=0.0, t=0.3))
        ci = ChoiceInputs(regime="holder_rule", rho=1.0, delta=delta, t=0.3,
                          tau=1.0, d=1, e1=PI2, e2=PI2, q=0.0)
        lvl_holder = choose_n_holder(ci)
        assert lvl_log.raw == pytest.approx(lvl_holder.raw, rel=1e-13)

    def test_clamping_flagged(self):
        choice = choose_n_log(log_inputs(1e-2))
        assert choice.level == 1 and choice.clamped


class TestHolderRule:
    def test_frozen_small_delta(self):
        choice = choose_n_holder(holder_inputs(1e-6))
        manual = math.sqrt(math.log(1e6) / (PI2 * 1.5))
        assert choice.raw == pytest.approx(manual, rel=1e-14)
        assert choice.raw == pytest.approx(0.9660241136935642, rel=1e-13)
        assert choice.level == 1 and choice.clamped

    def test_frozen_tiny_delta(self):
        choice = choose_n_holder(holder_inputs(1e-40))
        assert choice.raw == pytest.approx(2.4942635362466365, rel=1e-13)
        assert choice.level == 2 and not choice.clamped

    def test_monotone_unbounded(self):
        levels = [choose_n_holder(holder_inputs(math.exp(-ld))).level
                  for ld in (10, 60, 150, 300, 600)]
        assert all(b >= a for a, b in zip(levels, levels[1:]))
        assert levels[-1] >= 6

    def test_dispatch(self):
        assert choose_level(holder_inputs(1e-6)) == choose_n_holder(holder_inputs(1e-6))
        assert choose_level(log_inputs(1e-6)) == choose_n_log(log_inputs(1e-6))
        with pytest.raises(ValueError):
            choose_n_log(holder_inputs(1e-6))


class TestRateConsistency:
    def test_holder_bound_staircase_exponent(self):
        # the rule's floor makes the bound a staircase; over a ladder spread
        # across transitions the fitted decay matches the theoretical
        # delta-exponent within the staircase tolerance
        model = EigenModel.dirichlet_1d(8)
        rho = 1.7455e10  # a certified single-mode budget
        sc = holder_bound_staircase(model, tau=1.0, t=0.0, q=0.5, rho=rho, kappa=1.0)
        assert len(sc.deltas) == 8
        assert sc.theoretical_slope == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert abs(sc.fit.slope - sc.theoretical_slope) <= 0.2
        assert sc.non_increasing

    def test_holder_bound_staircase_deltas_stay_normal_doubles(self):
        # denom = 1.5 pi^2: r = 6.9 gives delta ~ e^{-704.8}, a normal double;
        # r = 7 gives e^{-725.4}, a subnormal one
        model = EigenModel.dirichlet_1d(8)
        args = dict(tau=1.0, t=0.0, q=0.5, rho=1.0, kappa=1.0, n_points=4, r_min=6.0)
        sc = holder_bound_staircase(model, r_max=6.9, **args)
        assert min(sc.deltas) >= sys.float_info.min
        with pytest.raises(ValueError, match="not a normal double"):
            holder_bound_staircase(model, r_max=7.0, **args)

    def test_log_regime_bound_matches_form(self):
        # with N from the log rule, the bound divided by the theoretical
        # factor (ln(rho/delta)/eta)^{-p} stays constant along a ladder
        # sampled at the rule's transitions (t = 0: the delta-power is 0)
        model = EigenModel.dirichlet_1d(8)
        t, tau, p, rho = 0.0, 1.0, 1.0, 1.0
        eta = PI2 * tau
        ratios = []
        for n in range(1, 7):
            target = eta * (n + 1e-6) ** 2
            big_l = target
            for _ in range(60):
                big_l = target + p * math.log(big_l / eta)
            delta = rho * math.exp(-big_l)
            level = min(choose_n_log(log_inputs(delta, p=p)).level, model.mode_count)
            b = BoundInputs(model=model, level=level, t=t, tau=tau, delta=delta,
                            rho=rho, kappa=1.0, regime="gevrey_p", p=p)
            ratios.append(log_total_bound(b) + p * math.log(big_l / eta))
        assert max(ratios) - min(ratios) <= 0.05
