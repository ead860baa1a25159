"""Every fvptrunc name the benchmark under `bench/` reads still exists,
and the benchmark's calls into the package still work.

The bench scripts import the package inside their workload bodies, so a
deleted or renamed name would only show when a workload runs.  Here their
source is parsed: every `import fvptrunc...` and
`from fvptrunc... import name` must resolve, and so must every traced
callable in `bench/spans.py`'s TARGETS, which the tracer otherwise skips
without failing.  A name that resolves can still be called or read in a
way the package no longer supports, so the acceptance-solves body runs
here too, and the ladder documents are parsed at both golden seeds.

The other direction is checked too: every top-level function and class
of the package, and every member of its classes, is read by other
package code or by a bench script, so code only the tests read lives in
`tests/oracle.py`, not in `src`.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from fvptrunc.quadrature import SCHEME_ORDER
from fvptrunc.solver import DEFAULT_QUADRATURE_ORDER

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "fvptrunc"
SCRIPTS = sorted(BENCH.glob("*.py"))


def package_imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """(module, name) of each fvptrunc import; name is None for `import m`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "fvptrunc"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "fvptrunc":
            found += [(node.module, a.name) for a in node.names]
    return found


def test_bench_scripts_found():
    assert BENCH / "workloads.py" in SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_package_imports_resolve(script):
    for module, name in package_imports(ast.parse(script.read_text())):
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{script.name}: {module}.{name}"


def traced_targets() -> tuple:
    """`bench/spans.py`'s TARGETS: (span, module, dotted path) triples."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))


def test_traced_targets_resolve():
    targets = traced_targets()
    assert targets
    for _, module, path in targets:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{module}.{path}"
            obj = getattr(obj, attr)


def bench_reads() -> set[str]:
    """The package names the bench scripts read: each name they import from
    fvptrunc, each attribute on a name such an import binds
    (`fvptrunc.cli.main` reads `cli` and `main`), and each part of a traced
    target's path."""
    read = set()
    for script in SCRIPTS:
        tree = ast.parse(script.read_text())
        bound = set()
        for module, name in package_imports(tree):
            bound.add(name or module.split(".")[0])
        read |= bound
        for node in ast.walk(tree):
            chain, root = [], node
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if chain and isinstance(root, ast.Name) and root.id in bound:
                read.update(chain)
    for _, _, path in traced_targets():
        read.update(path.split("."))
    return read


def names_read(node: ast.AST) -> set[str]:
    """Every name `node` loads, bare or as an attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_package_definition_is_on_the_run_path():
    # a top-level function or class of src/fvptrunc that no other package
    # statement and no bench script reads is test-only code, which belongs
    # in tests/oracle.py; an AST walk, since docstrings name such code too
    statements = [node for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    defs = [node for node in statements
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    read_by = [(node, names_read(node)) for node in statements]
    bench = bench_reads()
    unread = sorted(d.name for d in defs if d.name not in bench
                    and not any(d.name in names for node, names in read_by if node is not d))
    assert unread == []


def class_members(cls: ast.ClassDef) -> list[tuple[str, ast.AST]]:
    """(name, node) of each method, property and plain class attribute
    that `cls` defines, dunders left out; dataclass and NamedTuple fields
    are not members here."""
    found = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node))
        elif isinstance(node, ast.Assign):
            found += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found
            if not (name.startswith("__") and name.endswith("__"))]


def test_every_class_member_is_on_the_run_path():
    # a method, property or class attribute of a package class that no
    # other package code and no bench script reads is test-only code too.
    # A staticmethod counts as read only as `Class.name` (or
    # `module.Class.name`), since `.name` alone also matches a namesake:
    # SourceFunction.zero() reads no other class's `zero`.  Any other
    # member counts as read as `.name`, and so does a traced target's path
    package = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    reads = []    # (attribute node, the name it is read on, if a bare or dotted name)
    for tree in package + [ast.parse(script.read_text()) for script in SCRIPTS]:
        reads += [(node, getattr(node.value, "id", None) or getattr(node.value, "attr", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    traced = {tuple(path.split(".")[-2:]) for _, _, path in traced_targets()}
    unread = []
    for cls in (node for tree in package for node in tree.body if isinstance(node, ast.ClassDef)):
        for name, member in class_members(cls):
            inside = {id(n) for n in ast.walk(member)}
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in getattr(member, "decorator_list", ()))
            if (cls.name, name) not in traced and not any(
                    node.attr == name and id(node) not in inside and (not static or on == cls.name)
                    for node, on in reads):
                unread.append(f"{cls.name}.{name}")
    assert unread == []


def test_scheme_order_the_bench_reads():
    assert SCHEME_ORDER[DEFAULT_QUADRATURE_ORDER] == 6


def load_workloads():
    """bench/workloads.py as a module; it loads only the standard library at import."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_bodies_run_on_the_package():
    from fvptrunc import ExperimentConfig
    workloads = load_workloads()
    cfg = workloads.make_config("acceptance-solves", 0)
    assert workloads.check_acceptance(cfg, workloads.run_acceptance(cfg)) == (45, 0)
    for workload in workloads.LADDERS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            ExperimentConfig.from_dict(workloads.ladder_config(workload, seed))
