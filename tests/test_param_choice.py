import math
import sys

import numpy as np
import pytest

from fvptrunc import (BoundInputs, ChoiceInputs, ConfigError, EigenModel,
                      choose_level, choose_n_holder, choose_n_log, log_total_bound, zeta,
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
        with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError):
            choose_n_log(log_inputs(math.exp(-15.0), p=50.0))
        with pytest.raises(ConfigError):
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


class TestGrowthConstantsEnterTheirTerms:
    # hand-built inputs with e1 < e2, q + t != tau - t and t != tau / 2, so
    # a rule that swaps e1 and e2 picks another value and breaks its balance
    E1, E2, TAU, T, RHO, DELTA = 2.0, 5.0, 1.0, 0.3, 10.0, 1e-6

    @pytest.mark.parametrize("d", [1, 2])
    def test_holder_rule_balances_truncation_against_noise(self, d):
        # at r = LevelChoice.raw the truncation term, which decays with the
        # lower growth constant, equals the noise term, which grows with the
        # upper one: rho e^{-(q+t) e1 r^{2/d}} = delta e^{(tau-t) e2 r^{2/d}}
        q = 0.5
        ci = ChoiceInputs(regime="holder_rule", rho=self.RHO, delta=self.DELTA, t=self.T,
                          tau=self.TAU, d=d, e1=self.E1, e2=self.E2, q=q)
        s = choose_n_holder(ci).raw ** (2 / d)
        truncation = math.log(self.RHO) - (q + self.T) * self.E1 * s
        noise = math.log(self.DELTA) + (self.TAU - self.T) * self.E2 * s
        assert truncation == pytest.approx(noise, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_log_rule_balance_with_its_weight(self, d):
        # the module docstring's r = (ln((delta/rho)^{-1/eta} ((1/eta)
        # ln(rho/delta))^{-p/eta}))^{d/2}, with L = ln(rho/delta), reads
        # eta r^{2/d} = L - p ln(L/eta), where eta = e1 t + e2 (tau - t)
        p = 1.0
        ci = ChoiceInputs(regime="log_rule", rho=self.RHO, delta=self.DELTA, t=self.T,
                          tau=self.TAU, d=d, e1=self.E1, e2=self.E2, p=p)
        eta = self.E1 * self.T + self.E2 * (self.TAU - self.T)
        big_l = math.log(self.RHO / self.DELTA)
        raw = choose_n_log(ci).raw
        assert eta * raw ** (2 / d) == pytest.approx(big_l - p * math.log(big_l / eta),
                                                     rel=1e-12)
