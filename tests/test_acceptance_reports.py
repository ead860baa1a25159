"""Every acceptance criterion runs in the suite.

`tests/test_acceptance.py` holds one test class per criterion, and each
test that passes prints `ACCEPTANCE n: PASS`.  Here its source is parsed:
each criterion 1-9 must have a `report(n, ...)` call in a test, and the
module may not skip or expect to fail any of them, so a passing suite
means every criterion passed.
"""

import ast
from pathlib import Path

TREE = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
ESCAPES = {"skip", "skipif", "xfail", "importorskip", "pytestmark"}


def test_every_criterion_reports_from_a_test():
    reported = {
        call.args[0].value
        for test in ast.walk(TREE)
        if isinstance(test, ast.FunctionDef) and test.name.startswith("test_")
        for call in ast.walk(test)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "report" and call.args and isinstance(call.args[0], ast.Constant)}
    assert reported == set(range(1, 10))


def test_no_criterion_is_skipped_or_expected_to_fail():
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(TREE) if isinstance(node, (ast.Attribute, ast.Name))}
    names |= {alias.asname or alias.name for node in ast.walk(TREE)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert names & ESCAPES == set()
