import contextlib
import copy
import io
import json
import re
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvptrunc.cli import main
from fvptrunc.harness import ExperimentConfig, noisy_solve
from fvptrunc.reference import illposed_pair


@pytest.fixture()
def config_path(tmp_path):
    doc = {
        "instance": {"tau": 1.0, "mode_count": 6,
                     "source": {"kind": "linear", "c": 1.0},
                     "reference": {"kind": "closed_form", "mode": 1}},
        "noise": {"deltas": [1e-4, 1e-6, 1e-8, 1e-10], "direction": "worst_case_mode",
                  "seed": 11, "trials": 1},
        "solver": {"n_steps": 128, "picard_tol": 1e-11, "max_iters": 500},
        "choice": {"regime": "holder_rule", "q": 0.5, "rho": "certified"},
        "eval_times": [0.0, 0.5],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_choose_n(capsys):
    code = main(["choose-n", "--delta", "1e-40", "--rho", "1.0", "--q", "0.5"])
    assert code == 0
    assert capsys.readouterr().out == "N = 2  (raw rule value 2.49426)\n"


def test_choose_n_log_rule(capsys):
    assert main(["choose-n", "--delta", "1e-12", "--rho", "1.0", "--p", "1"]) == 0
    assert capsys.readouterr().out == "N = 1  (raw rule value 1.64174)\n"


#: rule values past the double range: a 0 * inf, an infinite quotient (at
#: p = 0 and at p > 0, where it is no "noise too large"), a `**` that
#: overflows, a denominator and a log argument that underflow to 0
CHOOSE_N_PAST_THE_RANGE = [
    "choose-n --delta 1e-300 --rho 1 --p 0 --e1 1e-308 --e2 1e-308",
    "choose-n --delta 1e-300 --rho 1 --p 1e-3 --e1 1e-308 --e2 1e-308",
    "choose-n --delta 1e-300 --rho 1 --q 1 --e1 1e-320 --e2 1e-320",
    "choose-n --delta 1e-300 --rho 1 --q 0.5 --d 4 --e1 1e-200 --e2 1e-200",
    "choose-n --delta 1e-10 --rho 1 --t 1e-10 --tau 1e-10 --e1 1e-320 --e2 1e-320",
    "choose-n --delta 0.5 --rho 1 --p 1 --t 1e300 --tau 1e300 --e1 1e300",
]


@pytest.mark.parametrize("argv", CHOOSE_N_PAST_THE_RANGE)
def test_choose_n_past_the_double_range_exits_2(argv, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("range error:") and len(captured.err.splitlines()) == 1


def test_choose_n_noise_too_large_exits_2(capsys):
    code = main(["choose-n", "--delta", "2.0", "--rho", "1.0", "--q", "0.5"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    "choose-n --delta 1e-8 --rho 1 --q 0.5 --p 3",
    "choose-n --delta 1e-8 --rho 1 --p 1 --q 0.5",
    "choose-n --delta 1e-4 --rho 1 --q 0.5 --p 1",
])
def test_choose_n_both_p_and_q_exits_2(argv, capsys):
    # p selects the log rule and q the Holder rule: one line names both
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and len(captured.err.splitlines()) == 1
    assert names(captured.err, "p") and names(captured.err, "q"), captured.err
    options = dict(zip(argv.split()[1::2], argv.split()[2::2]))
    assert f"p = {float(options['--p'])} and q = {float(options['--q'])}" in captured.err


def names(line: str, argument: str) -> bool:
    """Whether `line` names `argument`, as `argument` or `--argument`."""
    return re.search(rf"(?<![\w.]){re.escape(argument)}(?![\w])", line) is not None


@pytest.mark.parametrize("argv, argument", [
    (["choose-n", "--delta", "0", "--rho", "1.0"], "delta"),
    (["choose-n", "--delta", "1e-8", "--rho", "-1"], "rho"),
    (["solve", "--config", "CONFIG", "--level", "1", "--delta", "-1"], "delta"),
    # a d past the double range, which the rule divides as a double
    (["choose-n", "--delta", "1e-8", "--rho", "1", "--q", "0.5",
      "--d", "1" + "0" * 309], "d"),
])
def test_out_of_range_option_is_one_config_error_line(argv, argument, config_path, capsys):
    # the library call that reads the value refuses it, not argparse
    argv = [str(config_path) if a == "CONFIG" else a for a in argv]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert names(lines[0], argument), lines


@pytest.mark.parametrize("argv", [
    "solve --config CONFIG --level abc",
    "solve --config CONFIG --level 2.5",
    "demo-illposed --modes 1e3",
    "choose-n --delta abc --rho 1",
])
def test_option_that_is_not_a_number_is_a_usage_error(argv, config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(config_path) if a == "CONFIG" else a for a in argv.split()])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")


CHOOSE_N = ["choose-n", "--delta", "1e-8", "--rho", "1.0"]


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "CONFIG", "--level", "0"],
    ["solve", "--config", "CONFIG", "--level", "-3"],
    ["solve", "--config", "CONFIG", "--level", "9"],  # the config has 6 modes
    CHOOSE_N + ["--t", "5"],  # past tau
    CHOOSE_N + ["--d", "0"],
    CHOOSE_N + ["--e1", "-1"],
    CHOOSE_N + ["--p", "-1"],
    CHOOSE_N + ["--q", "nan"],
    CHOOSE_N + ["--tau", "0"],
    ["demo-illposed", "--tau", "0"],
    ["demo-illposed", "--tau", "-1"],
    ["demo-illposed", "--modes", "0"],
    ["choose-n", "--delta", "1e-8", "--rho", "0"],
    ["choose-n", "--rho", "1.0", "--delta", "nan"],
    CHOOSE_N + ["--e2", "inf"],
    CHOOSE_N + ["--t", "-1"],
    ["solve", "--config", "CONFIG", "--level", "1", "--delta", "-1"],
], ids=" ".join)
def test_bad_option_value_exits_2_with_one_message(argv, config_path, capsys):
    # the bad value is the last option's
    argument = [a for a in argv if a.startswith("--")][-1][2:]
    # no argparse usage error: that would raise SystemExit
    assert main([str(config_path) if a == "CONFIG" else a for a in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert names(lines[0], argument), lines


def test_demo_illposed_stops_building_at_the_first_norm_past_the_range(monkeypatch, capsys):
    # at tau = 1 the solution norm of mode 9 already leaves the double range
    import fvptrunc.cli
    built = []

    def counting(model, mode, tau):
        built.append(mode)
        return illposed_pair(model, mode, tau)

    monkeypatch.setattr(fvptrunc.cli, "illposed_pair", counting)
    assert main(["demo-illposed", "--modes", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("range error:"), lines
    assert len(built) <= 9, len(built)


def test_help_lists_the_four_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    commands = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
    assert commands.split(",") == ["solve", "demo-illposed", "choose-n", "experiment"]


# `demo-illposed --modes 8` at the default tau = 1
DEMO_TABLE = [
    "  n                data_norm         solution_norm(0)           lower_bound(0)",
    "  1      0.11421537026850374       734.24907631231747       724.67235661482175",
    "  2     0.026006171335752237       1303287837991816.8         1302406397126303",
    "  3     0.011387569405982498   1.5634352073306853e+36   1.5632324661545255e+36",
    "  4    0.0063731898877196994   8.8786687823271882e+65   8.8783081525598053e+65",
    "  5    0.0040694071471022901  2.1445924936418838e+104  2.1445569790303545e+104",
    "  6    0.0028224434471294914  2.1010613489127187e+151  2.1010446114650887e+151",
    "  7    0.0020720727249887157  8.1401846261841862e+206  8.1401496764205211e+206",
    "  8    0.0015856577987545448  1.2284858343806322e+271  1.2284827455856097e+271",
]


@pytest.mark.parametrize("modes", ["6", "8"])
def test_demo_illposed(modes, capsys):
    code = main(["demo-illposed", "--modes", modes])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == DEMO_TABLE[:int(modes) + 1]


@pytest.mark.parametrize("tau", ["0.01", "0.02", "0.03", "1e-17"])
def test_demo_illposed_prints_the_table_and_exits_0_at_small_tau(tau, capsys):
    # the solution norms do not increase with n here, which is no violation
    code = main(["demo-illposed", "--tau", tau])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert (code, captured.err) == (0, "")
    assert lines[0] == DEMO_TABLE[0]
    assert [line.split()[0] for line in lines[1:]] == [str(n) for n in range(1, 9)]


def test_experiment_and_determinism(tmp_path, config_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["experiment", "--config", str(config_path),
                 "--output-dir", str(out1)]) == 0
    assert main(["experiment", "--config", str(config_path),
                 "--output-dir", str(out2)]) == 0
    csv1 = (out1 / "experiment.csv").read_bytes()
    csv2 = (out2 / "experiment.csv").read_bytes()
    assert csv1 == csv2
    assert (out1 / "summary.txt").exists()
    header = csv1.decode().splitlines()[0]
    assert header.startswith("t,delta,seed,N,measured_error")


def test_solve_writes_trajectory(tmp_path, config_path):
    out = tmp_path / "traj.csv"
    code = main(["solve", "--config", str(config_path), "--level", "2",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,c1,c2,c3,c4,c5,c6,l2_norm"
    assert len(lines) == 130  # header + 129 grid points
    # one line per grid point: at t = tau the data, mode 1, exactly
    assert lines[-1] == "1,1,0,0,0,0,0,1"


@pytest.mark.parametrize("direction", ["worst_case_mode", "seeded_random"])
def test_noisy_solve_writes_the_harness_noisy_solve(tmp_path, config_path, direction):
    # `solve --delta` and the experiment cells share one noisy solve
    doc = json.loads(config_path.read_text())
    doc["noise"]["direction"] = direction
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "noisy.csv"
    assert main(["solve", "--config", str(config_path), "--level", "2", "--delta", "1e-8",
                 "--output", str(out)]) == 0
    cfg = ExperimentConfig.from_json(config_path.read_text())
    traj = noisy_solve(cfg, cfg.final_data(), 2, 1e-8, cfg.seed, cfg.n_steps).trajectory
    rows = [line.split(",")[1:-1] for line in out.read_text().splitlines()[1:]]
    assert rows == [[f"{c:.17g}" for c in col] for col in traj.states.T]


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["experiment", "--config", str(bad), "--output-dir",
                 str(tmp_path / "out")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["experiment", "--config", str(missing), "--output-dir",
                 str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("section, key, value", [
    ("instance", "tau", "abc"),
    ("noise", "deltas", 5),
    ("solver", "n_steps", [1]),
    ("noise", "deltas", [1e-4, "x"]),
    ("noise", "trials", 1.5),
    ("noise", "seed", -1),
    ("solver", "picard_tol", 0),
    ("solver", "max_iters", 0),
    ("choice", "q", None),
    ("choice", "rho", True),
    ("instance", "mode_count", "6"),
    ("instance", "source", {"kind": ["linear"]}),
    ("instance", "reference", {"kind": "closed_form", "mode": 7}),
    ("eval_times", None, [0.0, "0.5"]),
    ("eval_times", None, [0.0, 0.5, 0.5]),   # each t is one block of rows and one fit line
])
def test_mistyped_config_value_is_a_config_error(tmp_path, config_path, capsys,
                                                  section, key, value):
    doc = json.loads(config_path.read_text())
    if key is None:
        doc[section] = value
    else:
        doc[section][key] = value
    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(bad),
                 "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and section in err


def test_unknown_key_exit_code(tmp_path, config_path):
    doc = json.loads(config_path.read_text())
    doc["noise"]["surprise"] = 1
    bad = tmp_path / "unknown.json"
    bad.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(bad),
                 "--output-dir", str(tmp_path / "out")]) == 2


def test_solve_overflow_is_one_range_error_line(tmp_path, config_path, capsys):
    # F = 1000 u overflows within the first maps; numpy's over/invalid
    # warnings (errors in this suite) must not reach stderr before the message
    doc = json.loads(config_path.read_text())
    doc["instance"]["source"]["c"] = 1000.0
    path = tmp_path / "c1000.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path), "--level", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("range error:") and len(err.splitlines()) == 1


def test_nonconvergence_exit_code(tmp_path, config_path):
    doc = json.loads(config_path.read_text())
    doc["solver"]["max_iters"] = 1
    doc["solver"]["picard_tol"] = 1e-14
    bad = tmp_path / "stall.json"
    bad.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(bad),
                 "--output-dir", str(tmp_path / "out")]) == 3


def test_failing_deferred_solve_names_its_cell(tmp_path, config_path, capsys):
    # on 44 steps the t = 0.5 row of the delta 1e-16 cell is above its
    # bound; its n/2 solve (lambda_2 h doubled) diverges.  The error names
    # the cell by the first t whose row ran its solve, t = 0
    doc = json.loads(config_path.read_text())
    doc["solver"]["n_steps"] = 44
    doc["noise"]["deltas"] = [1e-12, 1e-16, 1e-20, 1e-24]
    assert run_experiment_cli(tmp_path, doc) == 3
    assert capsys.readouterr().err == (
        "solver did not converge: cell (t=0, delta=1e-16, trial=0) did not converge: "
        "no convergence after 500 iterations (last increment 4.318e+66)\n")


SIN_LADDER = {
    "instance": {"tau": 0.25, "mode_count": 12, "source": {"kind": "sin"},
                 "reference": {"kind": "self_convergent", "data": [[1, 0.2], [2, 1e-4]]}},
    "noise": {"deltas": [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8],
              "direction": "seeded_random", "seed": 0, "trials": 4},
    "solver": {"n_steps": 4096, "picard_tol": 1e-11, "max_iters": 500},
    "choice": {"regime": "holder_rule", "q": 50, "rho": "certified"},
    "eval_times": [0.0, 0.125, 0.25],
}


def run_experiment_cli(tmp_path, doc) -> int:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main(["experiment", "--config", str(path), "--output-dir", str(tmp_path / "out")])


def test_gevrey_norm_overflow_exits_2(tmp_path, capsys):
    # q = 50 puts the certified rho's weight e^{2 (q + tau) lambda} far
    # past the double range
    assert run_experiment_cli(tmp_path, SIN_LADDER) == 2
    err = capsys.readouterr().err
    assert err.startswith("range error:") and "Gevrey norm" in err


def test_unsupported_regime_exits_2(tmp_path, config_path, capsys):
    # c = lambda_1 gives complex mode roots, which the closed form excludes
    doc = json.loads(config_path.read_text())
    doc["instance"]["source"]["c"] = 9.8696
    assert run_experiment_cli(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "real distinct roots" in err


def test_complex_mode_roots_print_one_config_error_line(tmp_path, config_path, capsys):
    # (lambda_1 - c)^2 = (pi^2 - 8)^2 < 4, the README config with "c": 8.0
    doc = json.loads(config_path.read_text())
    doc["instance"]["source"]["c"] = 8.0
    assert run_experiment_cli(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "real distinct roots" in err


def test_rejected_reference_exits_3(tmp_path, config_path, capsys, monkeypatch):
    import fvptrunc.harness
    from fvptrunc import ReferenceRejectedError

    def reject(cfg):
        raise ReferenceRejectedError("ladder differences do not shrink")

    monkeypatch.setattr(fvptrunc.harness, "build_reference", reject)
    doc = json.loads(config_path.read_text())
    assert run_experiment_cli(tmp_path, doc) == 3
    err = capsys.readouterr().err
    assert err.startswith("reference rejected:") and "do not shrink" in err


def readme_sin_document(doc: dict, tau: float) -> dict:
    """The README document `doc` with the sin source, whose reference the
    self-convergent ladder builds from the sin-ladder's data."""
    doc["instance"].update(tau=tau, source={"kind": "sin"},
                           reference={"data": [[1, 0.2], [2, 1e-4]]})
    doc["eval_times"] = [0.0, 0.125]
    return doc


def test_readme_document_with_a_sin_source_runs(tmp_path, readme_document, capsys):
    assert run_experiment_cli(tmp_path, readme_sin_document(readme_document, 0.25)) == 0
    assert "dominance: 8/8 rows below bound" in capsys.readouterr().out.splitlines()
    assert len((tmp_path / "out" / "experiment.csv").read_text().splitlines()) == 9


def test_readme_document_with_a_sin_source_at_tau_1_rejects_its_reference(
        tmp_path, readme_document, capsys):
    # a real ladder, on 128, 256 and 512 steps, whose differences shrink
    # by less than the factor 3 a reference needs
    assert run_experiment_cli(tmp_path, readme_sin_document(readme_document, 1.0)) == 3
    err = capsys.readouterr().err
    assert err.startswith("reference rejected:") and len(err.splitlines()) == 1
    assert "shrink by 2.46 < required 3.00" in err, err


def test_solve_does_not_build_the_reference_ladder(tmp_path, capsys, monkeypatch):
    # solve reads the final data off the config; the reference's ladder
    # solves (and their rejection, exit 3) are the experiment's business
    import fvptrunc.reference

    def no_ladder(*args, **kwargs):
        raise AssertionError("solve ran a reference ladder solve")

    monkeypatch.setattr(fvptrunc.reference, "picard_solve", no_ladder)
    doc = dict(SIN_LADDER, solver={"n_steps": 64, "picard_tol": 1e-11, "max_iters": 500})
    path = tmp_path / "sin.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path), "--level", "2", "--delta", "1e-6",
                 "--output", str(tmp_path / "traj.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert len((tmp_path / "traj.csv").read_text().splitlines()) == 66


def test_sin_source_with_closed_form_reference_exits_2(tmp_path, capsys):
    doc = dict(SIN_LADDER, instance={"tau": 0.25, "mode_count": 12, "source": {"kind": "sin"},
                                     "reference": {"kind": "closed_form", "mode": 1}})
    assert run_experiment_cli(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "closed_form" in err


def test_demo_illposed_past_the_double_range_exits_2(capsys):
    # e^{|beta_n|} overflows from n = 9 on (|beta_9| ~ 798 at tau = 1)
    assert main(["demo-illposed", "--modes", "40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("range error:") and "overflows" in err


# --------------------------------------------------------------------------
# the README's examples

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_exit_0(tmp_path, monkeypatch, readme_document):
    # each `fvptrunc` line of the README's ```sh blocks, run where
    # examples.json is the README's config document, as the README asks
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                if line.startswith("fvptrunc ")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "examples.json").write_text(json.dumps(readme_document))
    codes = {" ".join(argv): main(argv) for argv in commands}
    assert codes and set(codes.values()) == {0}, codes


def test_readme_solve_at_level_4_writes_level_1s_trajectory(tmp_path, readme_document):
    # the data is phi_1 alone and the source coefficient-wise, so the modes
    # decouple: level 4 writes level 1's trajectory byte for byte
    config = tmp_path / "examples.json"
    config.write_text(json.dumps(readme_document))
    written = []
    for level in ("1", "4"):
        out = tmp_path / f"level{level}.csv"
        assert main(["solve", "--config", str(config), "--level", level,
                     "--output", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


# --------------------------------------------------------------------------
# fuzzing config documents: one leaf replaced by a palette value

FUZZ_BASES = {
    "linear": {
        "instance": {"tau": 1.0, "mode_count": 4, "source": {"kind": "linear", "c": 1.0},
                     "reference": {"kind": "closed_form", "mode": 1}},
        "noise": {"deltas": [1e-4, 1e-6, 1e-8, 1e-10], "direction": "seeded_random",
                  "seed": 3, "trials": 1},
        "solver": {"n_steps": 32, "picard_tol": 1e-11, "max_iters": 500},
        "choice": {"regime": "holder_rule", "q": 0.5, "rho": "certified"},
        "eval_times": [0.0, 0.5],
    },
    # 64 steps: the least a self-convergent reference's ladder admits
    "sin": {
        "instance": {"tau": 0.25, "mode_count": 4, "source": {"kind": "sin"},
                     "reference": {"kind": "self_convergent",
                                   "data": [[1, 0.2], [2, 1e-4]]}},
        "noise": {"deltas": [1e-3, 1e-5, 1e-7, 1e-9], "direction": "seeded_random",
                  "seed": 3, "trials": 1},
        "solver": {"n_steps": 64, "picard_tol": 1e-11, "max_iters": 500},
        "choice": {"regime": "holder_rule", "q": 0.5, "rho": "certified"},
        "eval_times": [0.0, 0.125],
    },
}

UNKNOWN_KEY = object()  # the object holding the leaf gains an unknown key

# Wrong type, bool, null, negative, zero, one (a repeated mode where it
# replaces the second reference mode, a weaker setting elsewhere), empty
# list and object, unknown key.  None of them raises n_steps, mode_count,
# trials or max_iters above the base document's, so no example costs more
# than the base run.
PALETTE = ("x", True, None, -1, 0, 1, [], {}, UNKNOWN_KEY)


def _leaf_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = [(name, path) for name, doc in sorted(FUZZ_BASES.items())
          for path in _leaf_paths(doc)]


def _mutated(name, path, value) -> dict:
    doc = copy.deepcopy(FUZZ_BASES[name])
    *outer, last = path
    parent, holder = doc, doc
    for key in outer:
        parent = parent[key]
        if isinstance(parent, dict):
            holder = parent
    if value is UNKNOWN_KEY:
        holder["unknown"] = 1
    else:
        parent[last] = value
    return doc


def _experiment_exit(doc) -> tuple:
    """(exit code, stderr) of `fvptrunc experiment` on `doc`."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["experiment", "--config", str(path),
                         "--output-dir", str(Path(tmp) / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("name", sorted(FUZZ_BASES))
def test_fuzz_base_documents_run(name):
    assert _experiment_exit(FUZZ_BASES[name]) == (0, "")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LEAVES), st.sampled_from(PALETTE))
@example(("sin", ("instance", "reference", "data", 1, 0)), 1)  # a repeated mode
def test_mutated_config_exits_with_a_documented_code(leaf, value):
    code, err = _experiment_exit(_mutated(*leaf, value))
    assert code in (0, 2, 3, 4)
    assert len(err.splitlines()) <= 1


# --------------------------------------------------------------------------
# fuzzing choose-n: every numeric option a finite value its parser admits

MAGNITUDES = st.floats(min_value=1e-320, max_value=1e300)
NON_NEGATIVE = st.one_of(st.just(0.0), MAGNITUDES)


@st.composite
def choose_n_argvs(draw) -> list:
    argv = ["choose-n"]
    for name in ("delta", "rho", "tau", "e1", "e2"):
        argv += [f"--{name}", repr(draw(MAGNITUDES))]
    for name in ("t", "p", "q"):
        argv += [f"--{name}", repr(draw(NON_NEGATIVE))]
    return argv + ["--d", str(draw(st.integers(1, 2000)))]


@settings(max_examples=300, deadline=None)
@given(choose_n_argvs())
@example(CHOOSE_N_PAST_THE_RANGE[0].split())
@example(CHOOSE_N_PAST_THE_RANGE[1].split())
@example(CHOOSE_N_PAST_THE_RANGE[2].split())
@example(CHOOSE_N_PAST_THE_RANGE[3].split())
@example(CHOOSE_N_PAST_THE_RANGE[4].split())
@example(CHOOSE_N_PAST_THE_RANGE[5].split())
def test_fuzzed_choose_n_exits_0_or_2(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
