"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run `pytest -s tests/test_acceptance.py` to see one PASS line per criterion.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from fvptrunc import (BoundInputs, DominanceSample, EigenModel, FvpInstance,
                      GevreyParams, SolverConfig, SourceFunction, SpectralField,
                      TimeGrid, add_noise, apply_spectral_growth, check_dominance,
                      closed_form_solution, fit_rate, fixed_point_defect, gevrey_norm,
                      gronwall_bound, gronwall_comparison_solution, illposed_pair,
                      l2_norm, picard_solve, zeta, zeta_inverse)
from fvptrunc.harness import ExperimentConfig, run_experiment
from fvptrunc.reference import richardson_estimate

PI2 = math.pi ** 2
MODEL = EigenModel.dirichlet_1d(8)


def report(num: int, detail: str):
    print(f"\nACCEPTANCE {num}: PASS  [{detail}]")


class TestCriterion1ClosedFormEquivalence:
    def test_linear_source_and_zero_source(self):
        start = time.monotonic()
        grid = TimeGrid(1.0, 4000)

        ref = closed_form_solution(MODEL, 1, 1.0, 1.0, grid)
        inst = FvpInstance(model=MODEL, tau=1.0, source=SourceFunction.linear(1.0),
                           final_data=ref.final_data)
        res = picard_solve(inst, SolverConfig(level=4, n_steps=4000), ref.final_data)
        err_linear = res.trajectory.sup_distance(ref.trajectory)
        assert err_linear <= 1e-8

        ref0 = closed_form_solution(MODEL, 1, 0.0, 1.0, grid)
        inst0 = FvpInstance(model=MODEL, tau=1.0, source=SourceFunction.zero(),
                            final_data=ref0.final_data)
        res0 = picard_solve(inst0, SolverConfig(level=4, n_steps=4000), ref0.final_data)
        err_zero = res0.trajectory.sup_distance(ref0.trajectory)
        assert err_zero <= 1e-8

        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        report(1, f"sup errors {err_linear:.2e} / {err_zero:.2e} <= 1e-8, "
                  f"{elapsed:.2f}s < 5s")


class TestCriterion2IllposednessReproduction:
    def test_blowup_table_against_extended_precision(self):
        start = time.monotonic()
        data_norms, sol_norms = [], []
        worst_rel = 0.0
        for n in range(1, 9):
            pair = illposed_pair(MODEL, n, 1.0)
            b = abs(pair.roots.beta)
            data_norms.append(pair.data_norm)
            sol0 = float(pair.solution_norm(0.0))
            sol_norms.append(sol0)
            assert sol0 >= math.exp(b * 1.0) / b * (1 - 1e-13)
            with mp.workdps(60):
                lam = mp.mpf(n) ** 2 * mp.pi ** 2
                s = lam - 1
                beta = -(s + mp.sqrt(s * s - 4)) / 2
                alpha = 1 / beta
                v0 = (alpha * mp.exp(-alpha) - beta * mp.exp(-beta)) / (alpha - beta)
                exact_sol = abs(v0) / abs(beta)
                exact_data = 1 / abs(beta)
            worst_rel = max(worst_rel,
                            abs(pair.data_norm - float(exact_data)) / float(exact_data),
                            abs(sol0 - float(exact_sol)) / float(exact_sol))
        assert all(b < a for a, b in zip(data_norms, data_norms[1:]))
        assert all(b > a for a, b in zip(sol_norms, sol_norms[1:]))
        assert worst_rel <= 1e-10
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        report(2, f"8 modes, max relative deviation {worst_rel:.1e} <= 1e-10, "
                  f"{elapsed:.2f}s < 1s")


class TestCriterion3GronwallSweep:
    def test_randomized_comparison_system(self):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(100):
            c0 = float(rng.uniform(0.05, 10.0))
            c1 = float(rng.uniform(0.05, 5.0))
            tau = float(rng.uniform(0.5, 2.0))
            pts, u = gronwall_comparison_solution(c0, c1, tau, n_steps=200)
            bound = np.array([gronwall_bound(c0, c1, float(t), tau) for t in pts])
            # the exact equality case: no slack, and U = bound = c0 at t = tau
            assert np.all(u <= bound), "inequality violated"
            assert u[-1] == c0
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        report(3, f"100 samples, zero violations, {elapsed:.2f}s < 5s")


class TestCriterion4OperatorNormSharpness:
    def test_bound_and_equality(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            level = int(rng.integers(1, 6))
            t = float(rng.uniform(0.0, 700.0 / MODEL.eigenvalue(level)))
            psi = SpectralField(MODEL, rng.standard_normal(MODEL.mode_count))
            out = apply_spectral_growth(t, psi, level)
            assert l2_norm(out) <= math.exp(MODEL.eigenvalue(level) * t) \
                * l2_norm(psi) * (1 + 1e-12)
        worst = 0.0
        for level in (1, 2, 3, 4):
            for t in (0.0, 0.3, 0.7, 1.0):
                out = apply_spectral_growth(t, SpectralField.basis(MODEL, level), level)
                expected = math.exp(MODEL.eigenvalue(level) * t)
                worst = max(worst, abs(l2_norm(out) - expected) / expected)
        assert worst <= 1e-12
        report(4, f"1000 random draws below bound; equality gap {worst:.1e} <= 1e-12")


class TestCriterion5BoundDominance:
    def test_grid_of_cells(self):
        start = time.monotonic()
        tau, q = 1.0, 0.5
        n_steps = 256
        grid = TimeGrid(tau, n_steps)
        ref = closed_form_solution(MODEL, 1, 1.0, tau, grid)
        gp = GevreyParams(0.0, q + tau)
        rho = 1.01 * max(gevrey_norm(ref.trajectory.state(i), gp)
                         for i in range(n_steps + 1))
        g = ref.final_data
        samples = []
        for level in (1, 2, 3, 4):
            for delta in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
                noisy = add_noise(g, delta, "worst_case_mode", mode=level)
                inst = FvpInstance(model=MODEL, tau=tau,
                                   source=SourceFunction.linear(1.0),
                                   final_data=g, noisy_data=noisy, delta=delta)
                fine = picard_solve(inst, SolverConfig(level=level, n_steps=n_steps),
                                    noisy)
                coarse = picard_solve(inst, SolverConfig(level=level,
                                                         n_steps=n_steps // 2), noisy)
                rich = richardson_estimate(fine.trajectory.sup_distance(coarse.trajectory))
                for t in (0.0, tau / 2):
                    idx = grid.index_of(t)
                    measured = l2_norm(ref.trajectory.state(idx)
                                       - fine.trajectory.state(idx))
                    bi = BoundInputs(model=MODEL, level=level, t=t, tau=tau,
                                     delta=delta, rho=rho, kappa=1.0,
                                     regime="gevrey_q", q=q)
                    samples.append(DominanceSample(inputs=bi, measured=measured,
                                                   slack=10.0 * rich))
        rep = check_dominance(samples)
        assert rep.ok, f"violations: {rep.violations}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        report(5, f"{rep.total} cells (N 1..4 x 5 deltas x 2 times), zero "
                  f"violations, {elapsed:.1f}s < 60s")


class TestCriterion6HolderRateExponent:
    def test_truncating_ladder_bound_rate(self):
        # a closed-form reference spread over 8 modes, g_j = e^{-(q + 2 tau)
        # lambda_j}: the rule's level steps along the ladder, and at each t
        # the experiment's own total bound decays at the theorem's exponent
        # e = e1 (q+t) / (e1 (q+t) + e2 (tau-t)) within the staircase
        # tolerance the rule's floor leaves on five deltas
        tau, q = 0.05, 0.01
        doc = {
            "instance": {"tau": tau, "mode_count": 8, "source": {"kind": "linear", "c": 1.0},
                         "reference": {"data": [[j, math.exp(-(q + 2 * tau) * j * j * PI2)]
                                                for j in range(1, 9)]}},
            "noise": {"deltas": [1e-2, 1e-4, 1e-6, 1e-8, 1e-10],
                      "direction": "seeded_random", "seed": 0, "trials": 2},
            "solver": {"n_steps": 1024, "picard_tol": 1e-11, "max_iters": 500},
            "choice": {"regime": "holder_rule", "q": q, "rho": "certified"},
            "eval_times": [0.0, tau / 2],
        }
        rep = run_experiment(ExperimentConfig.from_dict(doc))
        details = []
        for t in doc["eval_times"]:
            rows = [r for r in rep.rows if r.t == t]
            bounds = {r.delta: r.total_bound for r in rows}    # one bound per delta
            levels = tuple(dict.fromkeys(r.level for r in rows))
            e = MODEL.e1 * (q + t) / (MODEL.e1 * (q + t) + MODEL.e2 * (tau - t))
            slope = fit_rate(bounds.items()).slope
            assert abs(slope - e) <= 0.2, (t, slope, e)
            ladder = list(bounds.values())
            assert all(b <= a for a, b in zip(ladder, ladder[1:])), ladder
            assert len(levels) >= 3  # the staircase actually steps
            fit = rep.fits[t]
            details.append(f"t={t:g}: bound slope {slope:.3f} vs e {e:.3f}, measured "
                           f"{fit.slope:.3f} (CI {fit.ci95[0]:.3f}..{fit.ci95[1]:.3f}), "
                           f"N {levels}")
        report(6, "; ".join(details))


class TestCriterion7QuadratureOrder:
    def test_defect_shrinks_across_three_halvings(self):
        defects = []
        for n in (100, 200, 400, 800):
            grid = TimeGrid(1.0, n)
            ref = closed_form_solution(MODEL, 1, 1.0, 1.0, grid)
            inst = FvpInstance(model=MODEL, tau=1.0,
                               source=SourceFunction.linear(1.0),
                               final_data=ref.final_data)
            cfg = SolverConfig(level=1, n_steps=n)
            defects.append(fixed_point_defect(ref.trajectory, inst, cfg,
                                              ref.final_data))
        ratios = [defects[i] / defects[i + 1] for i in range(3)]
        assert all(r >= 3.5 for r in ratios), ratios
        report(7, "defect ratios per halving "
                  + ", ".join(f"{r:.1f}" for r in ratios) + " all >= 3.5")


class TestCriterion8DeterminismAndNoiseContract:
    def test_noise_norm_exact(self):
        rng = np.random.default_rng(88)
        worst = 0.0
        for k in range(100):
            g = SpectralField(MODEL, rng.standard_normal(MODEL.mode_count))
            delta = float(rng.uniform(0.25, 4.0)) * l2_norm(g)
            noisy = add_noise(g, delta, seed=k)
            worst = max(worst, abs(l2_norm(noisy - g) - delta) / delta)
        assert worst <= 1e-15
        # disjoint-mode worst-case noise is exact at any delta
        g = SpectralField.basis(MODEL, 1)
        for delta in (1e-3, 1e-9, 1e-15):
            noisy = add_noise(g, delta, "worst_case_mode", mode=4)
            assert l2_norm(noisy - g) == delta
        report(8, f"noise-norm deviation {worst:.2e} <= 1e-15 over 100 cases")

    def test_byte_identical_experiment_csv(self):
        doc = {
            "instance": {"tau": 1.0, "mode_count": 6,
                         "source": {"kind": "linear", "c": 1.0},
                         "reference": {"kind": "closed_form", "mode": 1}},
            "noise": {"deltas": [1e-4, 1e-6, 1e-8, 1e-10],
                      "direction": "seeded_random", "seed": 5, "trials": 3},
            "solver": {"n_steps": 128, "picard_tol": 1e-11, "max_iters": 500},
            "choice": {"regime": "holder_rule", "q": 0.5, "rho": "certified"},
            "eval_times": [0.0],
        }
        a = run_experiment(ExperimentConfig.from_dict(doc)).to_csv().encode()
        b = run_experiment(ExperimentConfig.from_dict(doc)).to_csv().encode()
        assert a == b
        report(8, f"identical seeds reproduce {len(a)}-byte CSV exactly")


class TestCriterion9LogFreeInverse:
    def test_inverse_and_asymptotic_ratio(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            b = float(rng.uniform(0.3, 3.0))
            c = float(rng.uniform(0.1, 2.0))
            d = float(rng.uniform(0.2, 4.0))
            s = zeta(float(rng.uniform(1e-12, 0.4)), b, c, d)
            inv = zeta_inverse(s, b, c, d)
            assert zeta(inv.root, b, c, d) == pytest.approx(s, rel=1e-12)
        devs = []
        for k in range(8, 34, 4):  # s = 1e-8 .. 1e-32, past the stated 1e-30
            inv = zeta_inverse(10.0 ** -k, 1.0, 1.0, 1.0)
            devs.append(abs(inv.asymptotic / inv.root - 1.0))
        assert all(bb < aa for aa, bb in zip(devs, devs[1:]))
        report(9, f"100 round-trips at 1e-12; |ratio-1| falls {devs[0]:.3f} -> "
                  f"{devs[-1]:.3f} monotonically")
