"""`import fvptrunc` and the CLI commands load numpy and no scipy module,
and only the commands that draw noise load numpy.random.

Every CLI call pays the package's import, and importing scipy's
subpackages costs several times numpy's own import.  The package needs
numpy only: the quadrature's weight moments are computed in numpy, and
its banded solve binds dtbsv in the OpenBLAS that numpy's wheels bundle.
A numpy built without that library (MKL, Accelerate) falls back to
scipy's dtbsv, loaded at import with scipy.linalg.  One check holds on
every numpy: no module of scipy.signal, scipy.integrate, scipy.stats or
scipy.optimize loads on import.  The checks that no scipy module loads
at all are skipped on such a numpy, and the skip says so.  Importing numpy.random costs 10-14
ms, about a quarter of a linear-ladder benchmark body, and the noise must
stay its PCG64 draws: numpy loads it on first use, so only `solve
--delta` and `experiment` pay for it.  Each check runs in a fresh
interpreter, since this test process may have imported anything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fvptrunc
from fvptrunc import quadrature

HEAVY = ("scipy.signal", "scipy.integrate", "scipy.stats", "scipy.optimize")

needs_bundled_dtbsv = pytest.mark.skipif(
    quadrature._openblas_dtbsv() is None,
    reason="numpy bundles no OpenBLAS here, so dtbsv comes from scipy.linalg")

SMALL_CONFIG = {
    "instance": {"tau": 1.0, "mode_count": 6, "source": {"kind": "sin"},
                 "reference": {"kind": "self_convergent", "data": [[1, 0.2], [2, 1e-4]]}},
    "noise": {"deltas": [1e-4], "direction": "seeded_random", "seed": 3, "trials": 1},
    "solver": {"n_steps": 64, "picard_tol": 1e-11, "max_iters": 500},
    "choice": {"regime": "holder_rule", "q": 0.5, "rho": "certified"},
    "eval_times": [0.0],
}


def modules_loaded_by(statement: str, package: str = "scipy") -> list:
    """The modules of `package` loaded after running `statement` in a fresh
    interpreter."""
    src = str(Path(fvptrunc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import json, sys\n"
            "import fvptrunc, fvptrunc.cli\n"
            f"{statement}\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            f"                        if m == {package!r} or m.startswith({package + '.'!r}))))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def command_loads(argv: list, package: str = "scipy") -> list:
    """The modules of `package` loaded by the CLI command `argv`, which must exit 0."""
    return modules_loaded_by(f"assert fvptrunc.cli.main({argv!r}) == 0", package)


def heavy(modules: list) -> list:
    return [m for m in modules if m.startswith(HEAVY)]


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    assert heavy(modules_loaded_by("pass")) == []


@needs_bundled_dtbsv
def test_import_loads_no_scipy():
    assert modules_loaded_by("pass") == []


@needs_bundled_dtbsv
@pytest.mark.parametrize("argv", [
    ["choose-n", "--delta", "1e-40", "--rho", "1.0", "--q", "0.5"],
    ["demo-illposed", "--modes", "8"],
], ids=lambda argv: argv[0])
def test_command_loads_no_scipy(argv):
    assert command_loads(argv) == []


@needs_bundled_dtbsv
def test_solve_loads_no_scipy(tmp_path):
    # a noisy solve runs the quadrature, its banded solve and the noise draw
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert command_loads(["solve", "--config", str(config), "--level", "2", "--delta", "1e-6",
                          "--output", str(tmp_path / "traj.csv")]) == []
    assert len((tmp_path / "traj.csv").read_text().splitlines()) == 66


@pytest.fixture(scope="module")
def lazy_numpy_random():
    """Skip where `import numpy` itself loads numpy.random."""
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, numpy; print('numpy.random' in sys.modules)"],
                          capture_output=True, text=True, timeout=120, check=True)
    if proc.stdout.strip() == "True":
        pytest.skip(f"numpy {np.__version__} imports numpy.random with numpy itself")


def test_import_leaves_numpy_random_unloaded(lazy_numpy_random):
    assert modules_loaded_by("pass", "numpy.random") == []


@pytest.mark.parametrize("argv", [
    ["choose-n", "--delta", "1e-40", "--rho", "1.0", "--q", "0.5"],
    ["demo-illposed", "--modes", "8"],
], ids=lambda argv: argv[0])
def test_noise_free_command_leaves_numpy_random_unloaded(lazy_numpy_random, argv):
    assert command_loads(argv, "numpy.random") == []


@pytest.mark.parametrize("delta", [None, "1e-6"])
def test_solve_loads_numpy_random_only_to_draw_noise(lazy_numpy_random, tmp_path, delta):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    argv = ["solve", "--config", str(config), "--level", "2",
            "--output", str(tmp_path / "traj.csv")]
    loaded = command_loads(argv + (["--delta", delta] if delta else []), "numpy.random")
    assert ("numpy.random" in loaded) == (delta is not None)
