import dataclasses
import json
import math
import re

import numpy as np
import pytest

import fvptrunc.cli
import fvptrunc.harness
from fvptrunc import (ConfigError, EigenModel, ExperimentConfig, ExponentOverflowError,
                      FvpInstance, GevreyParams, SpectralField, TimeGrid, add_noise,
                      check_dominance, combined_closed_form, fit_rate, gevrey_norm, l2_norm,
                      picard_solve, run_experiment, total_bound)
from fvptrunc.harness import RHO_SAFETY, ExperimentRow, build_reference
from fvptrunc.reference import richardson_estimate

PI2 = math.pi ** 2


@pytest.fixture(scope="module")
def model():
    return EigenModel.dirichlet_1d(8)


def config_doc(**over):
    doc = {
        "instance": {"tau": 1.0, "mode_count": 6,
                     "source": {"kind": "linear", "c": 1.0},
                     "reference": {"kind": "closed_form", "mode": 1}},
        "noise": {"deltas": [1e-4, 1e-6, 1e-8, 1e-10, 1e-12],
                  "direction": "worst_case_mode", "seed": 11, "trials": 1},
        "solver": {"n_steps": 256, "picard_tol": 1e-11, "max_iters": 500},
        "choice": {"regime": "holder_rule", "q": 0.5, "rho": "certified"},
        "eval_times": [0.0, 0.5],
    }
    doc.update(over)
    return doc


def certified_rho(doc: dict, gp: GevreyParams) -> float:
    """RHO_SAFETY times the largest Gevrey norm, in weight gp, of the
    closed-form reference's grid states."""
    traj = build_reference(ExperimentConfig.from_dict(doc)).trajectory
    return RHO_SAFETY * max(gevrey_norm(traj.state(i), gp) for i in range(traj.grid.n_steps + 1))


SIN_INSTANCE = {"tau": 0.25, "mode_count": 4, "source": {"kind": "sin"},
                "reference": {"kind": "self_convergent", "data": [[1, 0.2], [2, 1e-4]]}}


class TestAddNoise:
    def test_zero_delta_returns_input_unchanged(self, model):
        g = SpectralField.basis(model, 1)
        assert add_noise(g, 0.0) is g

    def test_norm_matches_delta(self, model):
        rng = np.random.default_rng(7)
        for k in range(100):
            g = SpectralField(model, rng.standard_normal(model.mode_count))
            delta = float(rng.uniform(0.25, 4.0)) * l2_norm(g)
            noisy = add_noise(g, delta, seed=k)
            assert l2_norm(noisy - g) == pytest.approx(delta, rel=1e-15)

    @pytest.mark.parametrize("delta", [1e-160, 1e-200, 1e-300])
    def test_norm_matches_tiny_delta(self, model, delta):
        # sums of squares of entries below ~1e-154 underflow
        for k in range(20):
            d = add_noise(SpectralField.zero(model), delta, seed=k).coeffs
            assert np.all(np.isfinite(d)) and np.any(d != 0.0)
            norm = math.sqrt(math.fsum((x / delta) ** 2 for x in d))
            assert abs(norm - 1.0) <= 1e-14

    def test_worst_case_mode_is_exact_on_clean_mode(self, model):
        # data has no mode-3 content: the perturbation is stored exactly
        g = SpectralField.basis(model, 1)
        for delta in (1e-3, 1e-9, 1e-15):
            noisy = add_noise(g, delta, "worst_case_mode", mode=3)
            assert noisy.coeffs[2] == delta
            assert l2_norm(noisy - g) == delta

    def test_same_seed_reproduces(self, model):
        g = SpectralField.basis(model, 2)
        a = add_noise(g, 1e-3, seed=42)
        b = add_noise(g, 1e-3, seed=42)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = add_noise(g, 1e-3, seed=43)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_bad_direction_rejected(self, model):
        g = SpectralField.basis(model, 1)
        with pytest.raises(ValueError):
            add_noise(g, 1e-3, "adversarial")
        with pytest.raises(ValueError):
            add_noise(g, 1e-3, "worst_case_mode")  # no mode given


class TestFitRate:
    def test_exact_linear_decay(self):
        pts = [(10.0 ** -k, 10.0 ** -k) for k in range(1, 6)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_square_root_decay(self):
        pts = [(10.0 ** -k, 3.0 * 10.0 ** (-0.5 * k)) for k in range(1, 7)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)

    def test_ci_is_student_t_on_a_hand_computed_fit(self):
        # ln delta = -1..-5 (mean -3, Sxx = 10) and ln error = ln delta + r
        # with r = (0, 0.1, -0.2, 0.1, 0): r sums to 0 and is orthogonal to
        # ln delta, so slope 1, intercept 0, SSres = 0.06 and dof 3, stderr
        # = sqrt(0.06 / 3 / 10); the half-width is t(0.975, 3) = 3.182 times it
        r = (0.0, 0.1, -0.2, 0.1, 0.0)
        fit = fit_rate([(math.exp(-k), math.exp(-k + rk)) for k, rk in zip(range(1, 6), r)])
        stderr = math.sqrt(0.002)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.stderr == pytest.approx(stderr, rel=1e-12)
        assert fit.ci95 == pytest.approx((1.0 - 3.182 * stderr, 1.0 + 3.182 * stderr),
                                         rel=1e-12)

    @pytest.mark.parametrize("dof, quantile", [
        (2, 4.302653), (3, 3.182446), (4, 2.776445), (5, 2.570582), (6, 2.446912),
        (10, 2.228139), (30, 2.042272), (100, 1.983972), (1000, 1.962339),
        (10 ** 9, 1.959964)])
    def test_student_t_quantile_within_1e_3(self, dof, quantile):
        # the 97.5% quantiles of Student's t, to 6 decimals
        assert abs(fvptrunc.harness._t975(dof) - quantile) <= 1e-3

    def test_contract_errors(self):
        with pytest.raises(ValueError):
            fit_rate([(1e-1, 1e-1), (1e-2, 1e-2), (1e-3, 1e-3)])
        with pytest.raises(ValueError):
            fit_rate([(1e-1, 1.0), (1e-2, -1.0), (1e-3, 1.0), (1e-4, 1.0)])

    def test_one_distinct_delta_refused(self):
        # four points at one delta have no slope: numpy's polyfit would warn
        # (RankWarning) and the fit read a zero-width CI
        with pytest.raises(ValueError, match="at least 2 distinct deltas"):
            fit_rate([(0.1, 1e-3), (0.1, 2e-3), (0.1, 3e-3), (0.1, 5e-3)])


class TestExperimentConfig:
    def test_valid_document_round_trips(self):
        cfg = ExperimentConfig.from_json(json.dumps(config_doc()))
        assert cfg.tau == 1.0 and cfg.regime == "holder_rule"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(config_doc(extra={"x": 1}))

    def test_unknown_nested_key_rejected(self):
        doc = config_doc()
        doc["noise"]["color"] = "pink"
        with pytest.raises(ConfigError, match="unknown keys in noise"):
            ExperimentConfig.from_dict(doc)
        doc = config_doc()
        doc["instance"]["source"]["gain"] = 2
        with pytest.raises(ConfigError, match="instance.source"):
            ExperimentConfig.from_dict(doc)

    def test_missing_section_rejected(self):
        doc = config_doc()
        del doc["choice"]
        with pytest.raises(ConfigError, match="missing config section"):
            ExperimentConfig.from_dict(doc)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_json("{not json")

    def test_non_decreasing_ladder_rejected(self):
        doc = config_doc()
        doc["noise"]["deltas"] = [1e-6, 1e-4]
        with pytest.raises(ConfigError, match="strictly decreasing"):
            ExperimentConfig.from_dict(doc)

    def test_off_grid_eval_time_rejected(self):
        doc = config_doc()
        doc["eval_times"] = [0.0, 1.0 / 3.0]
        with pytest.raises(ConfigError, match="grid point"):
            ExperimentConfig.from_dict(doc)

    def test_regime_parameter_mismatch_rejected(self):
        doc = config_doc()
        doc["choice"] = {"regime": "holder_rule", "p": 1.0, "rho": 1.0}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)
        doc["choice"] = {"regime": "log_rule", "q": 0.5, "rho": 1.0}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_self_convergent_requires_sin_source(self):
        doc = config_doc()
        doc["instance"]["reference"] = {"kind": "self_convergent", "data": [[1, 0.2]]}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_sin_source_rejects_closed_form_reference(self):
        # the closed form solves the zero-source problem, not the sin one
        doc = config_doc()
        doc["instance"]["source"] = {"kind": "sin"}
        with pytest.raises(ConfigError, match="closed_form"):
            ExperimentConfig.from_dict(doc)

    def test_repeated_reference_mode_rejected(self):
        doc = config_doc(instance=dict(SIN_INSTANCE, reference={
            "kind": "self_convergent", "data": [[1, 0.2], [2, 1e-4], [2, 0.5]]}))
        with pytest.raises(ConfigError, match="mode 2 is given twice"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("field, value, name", [
        ("tau", -1.0, "instance.tau"), ("tau", math.nan, "instance.tau"),
        ("mode_count", 0, "instance.mode_count"), ("n_steps", 3, "solver.n_steps"),
        ("deltas", (1e-6, 1e-4), "noise.deltas"), ("direction", "sideways", "noise.direction"),
        ("regime", "ridge", "choice.regime"), ("rho", -1.0, "choice.rho"),
        # the wrong type, refused by name like a parsed value
        ("tau", "1.0", "instance.tau"), ("trials", "3", "noise.trials"),
        ("picard_tol", "x", "solver.picard_tol"), ("mode_count", 2.5, "instance.mode_count"),
        ("seed", 1.5, "noise.seed"), ("deltas", ("1e-4",), "noise.deltas"),
        ("eval_times", (0.0, 0.5, 0.5), "eval_times"),
        # a grid or model that numpy refuses to allocate, before it touches memory
        pytest.param("n_steps", 10 ** 14, "solver.n_steps", id="n_steps-1e14"),
        pytest.param("n_steps", 10 ** 400, "solver.n_steps", id="n_steps-1e400"),
        pytest.param("mode_count", 10 ** 30, "instance.mode_count", id="mode_count-1e30"),
        # a key that the source or the rule does not use, nonzero; a dict
        # value sets the other fields the case needs as well
        pytest.param("source_c", {"source_kind": "zero", "source_c": 3.0}, "instance.source.c",
                     id="source_c-zero-source"),
        pytest.param("source_c", {"source_kind": "sin", "source_c": 5.0}, "instance.source.c",
                     id="source_c-sin-source"),
        ("p", 0.5, "choice.p is not used by the holder rule"),
        pytest.param("q", {"regime": "log_rule", "p": 1.0, "q": 0.5},
                     "choice.q is not used by the log rule", id="q-log-rule")])
    def test_directly_built_config_is_checked(self, field, value, name):
        # the checks run on construction, not only on a parsed document
        cfg = ExperimentConfig.from_dict(config_doc())
        with pytest.raises(ConfigError, match=re.escape(name)):
            dataclasses.replace(cfg, **(value if isinstance(value, dict) else {field: value}))

    def test_unused_key_at_its_default_is_accepted(self):
        doc = config_doc(choice={"regime": "holder_rule", "p": 0, "q": 0.5})
        doc["instance"]["source"] = {"kind": "zero", "c": 0.0}
        cfg = ExperimentConfig.from_dict(doc)
        assert (cfg.source_kind, cfg.source_c, cfg.p) == ("zero", 0.0, 0.0)

    def test_directly_built_config_equals_the_parsed_one(self):
        # a key the document leaves out takes its field's default, and each
        # value is stored in its field's type
        doc = config_doc(noise={"deltas": [1e-4, 1e-6]}, solver={},
                         choice={"regime": "holder_rule", "q": 0.5})
        doc["instance"] = {"source": {"kind": "linear", "c": 1},
                           "reference": {"kind": "closed_form"}}
        doc["noise"]["seed"] = 3
        direct = ExperimentConfig(source_kind="linear", source_c=1.0,
                                  reference_data=[[1, 1.0]], deltas=[1e-4, 1e-6],
                                  seed=np.int64(3), regime="holder_rule", q=0.5,
                                  eval_times=[0, 0.5])
        parsed = ExperimentConfig.from_dict(doc)
        assert parsed == direct
        assert type(direct.seed) is int and direct.seed == 3
        assert parsed.reference_data == ((1, 1.0),) and parsed.eval_times == (0.0, 0.5)
        assert (parsed.mode_count, parsed.trials, parsed.n_steps, parsed.rho) == (
            8, 3, 1024, "certified")

    def test_reference_kind_follows_the_source(self):
        assert "reference_kind" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert len(dataclasses.fields(ExperimentConfig)) == 17
        cfg = ExperimentConfig.from_dict(config_doc())
        assert cfg.reference_kind == "closed_form"
        sin = ExperimentConfig.from_dict(config_doc(instance=SIN_INSTANCE, eval_times=[0.0]))
        assert sin.reference_kind == "self_convergent"
        # the sin source's reference ladder needs n/4 steps, also when built directly
        with pytest.raises(ConfigError, match="solver.n_steps"):
            dataclasses.replace(sin, n_steps=32)

    def test_closed_form_mode_is_one_data_pair(self):
        doc = config_doc()
        doc["instance"]["reference"] = {"kind": "closed_form", "mode": 3}
        assert ExperimentConfig.from_dict(doc).reference_data == ((3, 1.0),)

    @pytest.mark.parametrize("path", [
        ("noise", "deltas"), ("choice", "regime"), ("instance", "source", "kind")])
    def test_missing_required_key_named(self, path):
        doc = config_doc()
        *outer, last = path
        holder = doc
        for key in outer:
            holder = holder[key]
        del holder[last]
        with pytest.raises(ConfigError, match=re.escape(f"missing config key '{'.'.join(path)}'")):
            ExperimentConfig.from_dict(doc)

    def test_closed_form_reference_takes_data_without_kind(self, readme_document):
        # the README document with a two-mode reference: the source picks
        # the closed form, which reads the data's weights
        readme_document["instance"]["reference"] = {"data": [[1, 1.0], [3, 0.01]]}
        cfg = ExperimentConfig.from_dict(readme_document)
        assert cfg.reference_kind == "closed_form"
        assert cfg.reference_data == ((1, 1.0), (3, 0.01))
        ref = build_reference(cfg)
        exact = combined_closed_form(cfg.model(), [(1, 1.0), (3, 0.01)], cfg.source_c,
                                     TimeGrid(cfg.tau, cfg.n_steps))
        assert np.array_equal(ref.trajectory.states, exact.trajectory.states)
        assert np.array_equal(ref.final_data.coeffs, exact.final_data.coeffs)
        assert ref.error_estimate == exact.error_estimate == 0.0
        # and its experiment runs, every row below its bound
        assert run_experiment(cfg).dominance.ok

    def test_mode_shorthand_and_default_reference(self):
        sin = dict(SIN_INSTANCE, reference={"mode": 2})
        shorthand = ExperimentConfig.from_dict(config_doc(instance=sin, eval_times=[0.0]))
        sin["reference"] = {"data": [[2, 1.0]]}
        assert shorthand == ExperimentConfig.from_dict(config_doc(instance=sin,
                                                                  eval_times=[0.0]))
        # neither data nor mode is phi_1, for every source
        for source in ({"kind": "zero"}, {"kind": "linear", "c": 1.0}, {"kind": "sin"}):
            doc = config_doc(instance=dict(SIN_INSTANCE, source=source, reference={}),
                             eval_times=[0.0])
            assert ExperimentConfig.from_dict(doc).reference_data == ((1, 1.0),)

    def test_reference_with_mode_and_data_rejected(self):
        doc = config_doc()
        doc["instance"]["reference"] = {"mode": 1, "data": [[1, 1.0]]}
        with pytest.raises(ConfigError, match=r"^instance\.reference takes data") as info:
            ExperimentConfig.from_dict(doc)
        assert len(str(info.value).splitlines()) == 1

    def test_worst_case_noise_takes_one_trial(self, tmp_path, capsys):
        # the worst-case direction reads no seed, so a second trial would
        # repeat the first; refused before any solve
        doc = config_doc()
        doc["noise"]["trials"] = 2
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert fvptrunc.cli.main(["experiment", "--config", str(path),
                                  "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: noise.trials") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("t", [-1e-12, 1.0 + 1e-12])
    def test_eval_time_just_outside_the_interval_rejected(self, t):
        # within TimeGrid.index_of's rounding tolerance of points 0 and n,
        # but outside [0, tau], where the rule would refuse t
        msg = f"eval_times entry {t} is not a grid point"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            ExperimentConfig.from_dict(config_doc(eval_times=[t]))

    def test_solver_settings_come_from_the_document(self):
        doc = config_doc()
        doc["solver"] = {"n_steps": 64, "picard_tol": 1e-9, "max_iters": 40}
        scfg = ExperimentConfig.from_dict(doc).solver(3, 32)
        assert (scfg.level, scfg.n_steps, scfg.picard_tol, scfg.max_iters) == (3, 32, 1e-9, 40)

    @pytest.mark.parametrize("instance", [None, "sin"])
    def test_final_data_is_the_reference_final_data(self, instance):
        # a ladder solve ends on its data exactly: G_N(0) = I and the
        # kernel integral over [tau, tau] is zero
        doc = config_doc() if instance is None else config_doc(instance=SIN_INSTANCE,
                                                                 eval_times=[0.0])
        cfg = ExperimentConfig.from_dict(doc)
        assert np.array_equal(cfg.final_data().coeffs,
                              build_reference(cfg).final_data.coeffs)


class TestRunExperiment:
    def test_rows_bounds_and_fits(self):
        cfg = ExperimentConfig.from_dict(config_doc())
        report = run_experiment(cfg)
        # the holder rule's rho is certified in the weight (0, q + tau)
        assert report.rho == pytest.approx(certified_rho(config_doc(), GevreyParams(0.0, 1.5)),
                                           rel=1e-12)
        assert len(report.rows) == 10  # 2 times x 5 deltas x 1 trial
        for row in report.rows:
            assert math.isfinite(row.measured_error)
            assert math.isfinite(row.total_bound)
            assert row.total_bound == pytest.approx(
                row.truncation_bound + row.noise_bound, rel=1e-12)
        assert report.dominance is not None and report.dominance.ok
        for t in (0.0, 0.5):
            assert report.fits[t] is not None
            assert report.fits[t].ci95[0] <= report.fits[t].slope <= report.fits[t].ci95[1]

    def test_insufficient_ladder_flagged(self):
        doc = config_doc()
        doc["noise"]["deltas"] = [1e-6]
        cfg = ExperimentConfig.from_dict(doc)
        report = run_experiment(cfg)
        assert report.fits[0.0] is None
        assert any("insufficient ladder" in f for f in report.flags)

    def test_errors_non_increasing_along_ladder(self):
        cfg = ExperimentConfig.from_dict(config_doc())
        report = run_experiment(cfg)
        assert not any("not non-increasing" in f for f in report.flags)

    def test_byte_identical_csv_for_same_seed(self):
        doc = config_doc()
        doc["noise"]["direction"] = "seeded_random"
        doc["noise"]["trials"] = 2
        a = run_experiment(ExperimentConfig.from_dict(doc)).to_csv()
        b = run_experiment(ExperimentConfig.from_dict(doc)).to_csv()
        assert a.encode() == b.encode()

    def test_different_seed_changes_random_noise_rows(self):
        doc = config_doc()
        doc["noise"]["direction"] = "seeded_random"
        a = run_experiment(ExperimentConfig.from_dict(doc)).to_csv()
        doc["noise"]["seed"] = 12
        b = run_experiment(ExperimentConfig.from_dict(doc)).to_csv()
        assert a != b

    def test_nonlinear_pipeline_completes_and_errors_shrink(self):
        doc = config_doc()
        doc["instance"] = {"tau": 0.25, "mode_count": 4,
                           "source": {"kind": "sin"},
                           "reference": {"kind": "self_convergent",
                                         "data": [[1, 0.2], [2, 1e-4]]}}
        doc["noise"]["deltas"] = [1e-3, 1e-5, 1e-7, 1e-9]
        doc["solver"]["n_steps"] = 256
        doc["eval_times"] = [0.0]
        report = run_experiment(ExperimentConfig.from_dict(doc))
        errs = [r.measured_error for r in report.rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))
        assert report.dominance.ok

    def test_log_rule_pipeline(self):
        doc = config_doc()
        doc["choice"] = {"regime": "log_rule", "p": 1.0, "rho": "certified"}
        doc["noise"]["deltas"] = [1e-4, 1e-6, 1e-8, 1e-10]
        report = run_experiment(ExperimentConfig.from_dict(doc))
        assert report.dominance.ok
        assert all(r.level >= 1 for r in report.rows)
        assert report.rho == pytest.approx(certified_rho(doc, GevreyParams(1.0, 1.0)), rel=1e-12)

    def test_desk_scale_guard_rejects_overflowing_level(self):
        doc = config_doc()
        doc["instance"]["tau"] = 3.0
        doc["noise"]["deltas"] = [math.exp(-696)]
        doc["choice"] = {"regime": "holder_rule", "q": 0.1, "rho": 1e30}
        doc["eval_times"] = [0.0]
        # lambda_5 * tau = 740: the solve's growth factor leaves the double range
        with pytest.raises(ExponentOverflowError, match=r"e\^\(lambda_5 s\) overflows"):
            run_experiment(ExperimentConfig.from_dict(doc))

    def test_level_capped_at_mode_count_flagged(self):
        doc = config_doc()
        doc["instance"]["mode_count"] = 2
        doc["noise"]["deltas"] = [1e-4, math.exp(-134)]  # raw level 3 > mode_count
        doc["choice"] = {"regime": "holder_rule", "q": 0.5, "rho": 1.0}
        doc["eval_times"] = [0.0]
        doc["noise"]["direction"] = "seeded_random"
        doc["noise"]["trials"] = 3
        report = run_experiment(ExperimentConfig.from_dict(doc))
        # one flag for the one capped (t, delta), however many trials
        assert [f for f in report.flags if "capped" in f] == [
            f"level capped at mode_count for t=0, delta={math.exp(-134):g}"]
        assert max(r.level for r in report.rows) == 2

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_truncating_ladder_moves_the_level_and_holds_dominance(self, seed):
        # a closed-form reference spread over 8 modes, g_j = e^{-(q + 2 tau)
        # lambda_j}: the rule's level steps through several values along
        # the ladder, so the rows carry a truncation error
        tau, q = 0.05, 0.01
        data = [[j, math.exp(-(q + 2 * tau) * j * j * PI2)] for j in range(1, 9)]
        doc = config_doc(
            instance={"tau": tau, "mode_count": 8, "source": {"kind": "linear", "c": 1.0},
                      "reference": {"data": data}},
            noise={"deltas": [1e-2, 1e-4, 1e-6, 1e-8, 1e-10], "direction": "seeded_random",
                   "seed": seed, "trials": 2},
            solver={"n_steps": 1024, "picard_tol": 1e-11, "max_iters": 500},
            choice={"regime": "holder_rule", "q": q, "rho": "certified"},
            eval_times=[0.0, tau / 2])
        report = run_experiment(ExperimentConfig.from_json(json.dumps(doc)))
        assert len(report.rows) == 20
        for t in doc["eval_times"]:
            assert len({r.level for r in report.rows if r.t == t}) >= 3
        assert report.dominance.ok

    def test_delta_not_below_rho_exits_2_before_any_cell_solve(self, tmp_path, monkeypatch,
                                                               capsys):
        steps = count_solves(monkeypatch)
        doc = config_doc()
        doc["choice"]["rho"] = 1e-5          # below the first delta, 1e-4
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert fvptrunc.cli.main(["experiment", "--config", str(path),
                                  "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert steps == []

    def test_unused_source_coefficient_exits_2_before_any_solve(self, tmp_path, monkeypatch,
                                                                capsys):
        # the zero source solves with F = 0, so its rows would be measured
        # against the closed form of the linear source with c = 3
        steps = count_solves(monkeypatch)
        doc = config_doc()
        doc["instance"]["source"] = {"kind": "zero", "c": 3.0}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert fvptrunc.cli.main(["experiment", "--config", str(path),
                                  "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: instance.source.c is used by the linear source only\n")
        assert steps == []

    def test_csv_column_layout(self):
        cfg = ExperimentConfig.from_dict(config_doc())
        report = run_experiment(cfg)
        text = report.to_csv()
        header = text.splitlines()[0]
        assert header == ("t,delta,seed,N,measured_error,truncation_bound,"
                          "noise_bound,total_bound,iterations,residual")
        first = text.splitlines()[1].split(",")
        assert len(first) == 10
        # each column parses back to the first row's field, in field order
        values = [getattr(report.rows[0], f.name) for f in dataclasses.fields(ExperimentRow)]
        assert [type(v)(x) for v, x in zip(values, first)] == values


def count_solves(monkeypatch) -> list:
    """The n_steps of every picard_solve that run_experiment makes."""
    steps = []

    def counted(instance, cfg, data):
        steps.append(cfg.n_steps)
        return picard_solve(instance, cfg, data)

    monkeypatch.setattr(fvptrunc.harness, "picard_solve", counted)
    return steps


def capture_samples(monkeypatch) -> list:
    """The dominance samples run_experiment hands to check_dominance."""
    seen = []

    def captured(samples):
        seen.extend(samples)
        return check_dominance(seen)

    monkeypatch.setattr(fvptrunc.harness, "check_dominance", captured)
    return seen


def eager_slack(cfg: ExperimentConfig, reference, sample, seed: int) -> float:
    """The slack of an above-bound sample, computed eagerly: 10x the Richardson
    estimate of its cell's solves on n and n/2 steps, plus the reference's
    error estimate."""
    level, delta = sample.inputs.level, sample.inputs.delta
    noisy = add_noise(reference.final_data, delta, cfg.direction, seed=seed, mode=level)
    inst = FvpInstance(model=noisy.model, tau=cfg.tau, source=cfg.source())
    fine, coarse = (picard_solve(inst, cfg.solver(level, n), noisy).trajectory
                    for n in (cfg.n_steps, cfg.n_steps // 2))
    return 10.0 * richardson_estimate(fine.sup_distance(coarse)) + reference.error_estimate


class TestDeferredSlack:
    """The n/2 solve of a cell runs only for a row above its total bound."""

    def test_rows_below_bound_run_one_solve_per_cell(self, monkeypatch):
        steps = count_solves(monkeypatch)
        cfg = ExperimentConfig.from_dict(config_doc())
        report = run_experiment(cfg)
        assert all(r.measured_error <= r.total_bound for r in report.rows)
        cells = {(r.level, r.delta, r.seed) for r in report.rows}
        assert steps == [cfg.n_steps] * len(cells)
        assert report.dominance.ok

    #: the README document on 64 steps: its three t = 0.5 rows at N = 2
    #: measure 1.09e-6 against total bounds of 3.4e-7 to 4.4e-7
    SLACK_DOC = config_doc(noise={"deltas": [1e-12, 1e-16, 1e-20, 1e-24],
                                  "direction": "worst_case_mode", "seed": 11, "trials": 1},
                           solver={"n_steps": 64, "picard_tol": 1e-11, "max_iters": 500})

    def test_rows_above_bound_pass_through_their_slack(self, monkeypatch):
        steps = count_solves(monkeypatch)
        samples = capture_samples(monkeypatch)
        cfg = ExperimentConfig.from_dict(self.SLACK_DOC)
        report = run_experiment(cfg)
        assert report.dominance.ok and report.dominance.total == 8
        over = [s for s in samples if not s.measured <= total_bound(s.inputs)]
        assert [(s.inputs.t, s.inputs.delta, s.inputs.level) for s in over] == [
            (0.5, 1e-16, 2), (0.5, 1e-20, 2), (0.5, 1e-24, 2)]
        # one full-step solve per (level, delta, seed) key; the n/2 solves
        # reuse it, so no fine solve runs twice
        assert steps.count(cfg.n_steps) == 4
        assert steps.count(32) == 3
        assert all(s.slack == 0.0 for s in samples if s not in over)

        # the deferred slack is the eagerly computed one, bit for bit
        reference = build_reference(cfg)
        seeds = {r.delta: r.seed for r in report.rows}
        for s in over:
            assert s.slack == eager_slack(cfg, reference, s, seeds[s.inputs.delta])
            # an error just above the bound plus slack still fails
            bound = total_bound(s.inputs) + s.slack
            above = dataclasses.replace(s, measured=math.nextafter(bound, math.inf))
            assert check_dominance([dataclasses.replace(s, measured=bound)]).ok
            assert not check_dominance([above]).ok

    def test_slack_adds_the_self_convergent_reference_estimate(self, monkeypatch):
        # a sin source's ladder reference has a nonzero error estimate; on 64
        # steps at rho 1.0 the two rows at delta 1e-12 (N = 1) sit above
        # their bound, and their slack adds the estimate
        samples = capture_samples(monkeypatch)
        doc = dict(self.SLACK_DOC, eval_times=[0.0, 0.125],
                   choice={"regime": "holder_rule", "q": 0.5, "rho": 1.0})
        doc["instance"] = {"tau": 0.25, "mode_count": 6, "source": {"kind": "sin"},
                           "reference": {"data": [[1, 0.2], [2, 1e-4]]}}
        cfg = ExperimentConfig.from_dict(doc)
        report = run_experiment(cfg)
        reference = build_reference(cfg)
        assert reference.error_estimate == pytest.approx(4.3e-8, rel=0.01)
        over = [s for s in samples if not s.measured <= total_bound(s.inputs)]
        assert [(s.inputs.t, s.inputs.delta, s.inputs.level) for s in over] == [
            (0.0, 1e-12, 1), (0.125, 1e-12, 1)]
        seed, = {r.seed for r in report.rows if r.delta == 1e-12}
        for s in over:
            assert s.slack == eager_slack(cfg, reference, s, seed)

    @pytest.mark.parametrize("direction, solves", [("worst_case_mode", 4),
                                                   ("seeded_random", 12)])
    def test_readme_config_solves_once_per_noisy_data(self, monkeypatch, readme_document,
                                                      direction, solves):
        # 4 noise levels x 1 trial (worst case) or 3 trials (seeded), each
        # read at 2 times, all below their bound: one solve per seed
        readme_document["noise"]["direction"] = direction
        readme_document["noise"]["trials"] = solves // 4
        steps = count_solves(monkeypatch)
        cfg = ExperimentConfig.from_dict(readme_document)
        report = run_experiment(cfg)
        assert len(report.rows) == 2 * solves and len({r.seed for r in report.rows}) == solves
        assert report.dominance.ok
        assert steps == [cfg.n_steps] * solves

    def test_nan_error_takes_the_slack_path_and_fails(self, monkeypatch):
        steps = count_solves(monkeypatch)
        monkeypatch.setattr(fvptrunc.harness, "l2_norm", lambda field: math.nan)
        cfg = ExperimentConfig.from_dict(config_doc())
        report = run_experiment(cfg)
        cells = {(r.level, r.delta, r.seed) for r in report.rows}
        assert steps.count(cfg.n_steps // 2) == len(cells)
        assert len(report.dominance.violations) == len(report.rows)
        assert math.isnan(report.dominance.min_margin)
