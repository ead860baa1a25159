"""`import fvptrunc` loads only numpy, scipy.special and scipy.linalg.

Every CLI call pays the package's import, and scipy.signal or
scipy.integrate at module level would pull in scipy.stats and
scipy.optimize and triple it.  The check runs in a fresh interpreter,
since this test process may have imported anything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fvptrunc

HEAVY = ("scipy.signal", "scipy.integrate", "scipy.stats", "scipy.optimize")


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    src = str(Path(fvptrunc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import json, sys\n"
            "import fvptrunc, fvptrunc.cli\n"
            f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []
