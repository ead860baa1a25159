import json

import pytest

from fvptrunc.cli import main


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
    code = main(["choose-n", "--rule", "holder", "--delta", "1e-40", "--rho", "1.0",
                 "--q", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "N = 2" in out


def test_choose_n_noise_too_large_exits_2(capsys):
    code = main(["choose-n", "--rule", "holder", "--delta", "2.0", "--rho", "1.0",
                 "--q", "0.5"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["choose-n", "--rule", "holder", "--delta", "0", "--rho", "1.0"],
    ["choose-n", "--rule", "holder", "--delta", "1e-8", "--rho", "-1"],
    ["solve", "--config", "unused.json", "--level", "1", "--delta", "-1"],
])
def test_out_of_range_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "expected a finite number" in err


def test_demo_illposed(capsys):
    code = main(["demo-illposed", "--modes", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "strictly decreasing: True" in out
    assert "strictly increasing: True" in out


def test_gronwall_check(capsys):
    code = main(["gronwall-check", "--samples", "20", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "violations: 0" in out


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


def test_nonconvergence_exit_code(tmp_path, config_path):
    doc = json.loads(config_path.read_text())
    doc["solver"]["max_iters"] = 1
    doc["solver"]["picard_tol"] = 1e-14
    bad = tmp_path / "stall.json"
    bad.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(bad),
                 "--output-dir", str(tmp_path / "out")]) == 3
