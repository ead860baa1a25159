"""The CLI's exit-code contract: the README's table against the error types,
config files that cannot be read, grids and models too large to build,
and outputs that cannot be written."""

import json
import re
import sys
from pathlib import Path

import pytest

import fvptrunc.cli
import fvptrunc.errors
import fvptrunc.harness
from fvptrunc.cli import main
from fvptrunc.errors import FvptruncError

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_exit_codes() -> list[tuple[int, str, str]]:
    """(code, class name, label) for each class in the README's CLI table;
    a backticked `label:` applies to the classes listed since the last one."""
    text = README.read_text()
    table = text[text.index("| code | errors |"):].split("\n\n")[0]
    listed = []
    for code, cell in re.findall(r"^\| (\d) \| (.*) \|$", table, re.M):
        names = []
        for item in re.findall(r"`([^`]+)`", cell):
            if item.endswith(":"):
                listed += [(int(code), name, item[:-1]) for name in names]
                names = []
            else:
                names.append(item)
        assert not names, f"no label after {names} in the row of code {code}"
    return listed


def error_types(cls=FvptruncError) -> set:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | error_types(sub)
    return found


def test_readme_table_matches_the_error_types():
    listed = readme_exit_codes()
    names = [name for _, name, _ in listed]
    assert sorted(names) == sorted(t.__name__ for t in error_types())
    for code, name, label in listed:
        cls = getattr(fvptrunc.errors, name)
        assert (cls.exit_code, cls.label) == (code, label), name


@pytest.mark.parametrize("cls", sorted(error_types(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_main_reports_an_error_by_its_code_and_label(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("the message")

    monkeypatch.setattr(fvptrunc.cli, "_cmd_choose_n", fail)
    assert main(["choose-n", "--delta", "1", "--rho", "1"]) == cls.exit_code
    assert capsys.readouterr().err == f"{cls.label}: the message\n"


@pytest.fixture
def config_path(tmp_path, readme_document):
    path = tmp_path / "examples.json"
    path.write_text(json.dumps(readme_document))
    return path


def one_config_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ") and len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "cannot read config"),                     # not UTF-8
    (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: maximum recursion depth")],
    ids=["not-utf8", "nested-too-deep"])
def test_unreadable_config_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["experiment", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("where", ["missing/traj.csv", "file/traj.csv"])
def test_unwritable_solve_output_exits_2(tmp_path, config_path, capsys, where):
    (tmp_path / "file").write_text("")
    assert main(["solve", "--config", str(config_path), "--level", "1",
                 "--output", str(tmp_path / where)]) == 2
    assert str(tmp_path / where) in one_config_error_line(capsys)


def test_unwritable_experiment_directory_exits_2_before_any_solve(tmp_path, config_path,
                                                                  capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("picard_solve called")

    monkeypatch.setattr(fvptrunc.harness, "picard_solve", no_solve)
    (tmp_path / "file").write_text("")
    assert main(["experiment", "--config", str(config_path),
                 "--output-dir", str(tmp_path / "file" / "out")]) == 2
    one_config_error_line(capsys)


@pytest.mark.parametrize("section, key, value", [
    ("solver", "n_steps", 10 ** 14), ("solver", "n_steps", 10 ** 400),
    ("instance", "mode_count", 10 ** 30)],
    ids=["n_steps-1e14", "n_steps-1e400", "mode_count-1e30"])
@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_grid_or_model_too_large_to_build_exits_2(tmp_path, config_path, capsys, command,
                                                  section, key, value):
    # sizes numpy refuses to allocate before it touches memory
    doc = json.loads(config_path.read_text())
    doc[section][key] = value
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    where = ["--level", "1"] if command == "solve" else ["--output-dir", str(tmp_path / "out")]
    assert main([command, "--config", str(path)] + where) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert f"{section}.{key} is too large to build" in err


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys, command):
    # json.loads refuses an integer literal of more than 4300 digits with a
    # plain ValueError, not a JSONDecodeError (on Pythons with that limit)
    path = tmp_path / "config.json"
    path.write_text('{"instance": {"tau": 1' + "0" * 5000 + "}}")
    where = ["--level", "1"] if command == "solve" else ["--output-dir", str(tmp_path / "out")]
    assert main([command, "--config", str(path)] + where) == 2
    err = capsys.readouterr().err
    limited = hasattr(sys, "get_int_max_str_digits")
    assert err.startswith("config error: invalid JSON" if limited else "config error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("modes", ["100000000000000", "100000000000000000000"])
def test_demo_model_too_large_to_build_exits_2(capsys, modes):
    # sizes numpy refuses to allocate before it touches memory
    assert main(["demo-illposed", "--modes", modes]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --modes {modes} is too large to build")
    assert len(err.splitlines()) == 1
