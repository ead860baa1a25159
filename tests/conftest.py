"""Suite-wide test settings.

Hypothesis draws the same examples on every run (derandomize) and keeps no
example database, so a property test cannot pass on one run and fail on
the next.  Its other storage (it caches the literal constants of the code
under test whatever the database setting) goes to a temporary directory
that is removed when the run ends, so a test run leaves no `.hypothesis/`
in the checkout.

`readme_document` is the one reader of the README's config document, and
the report header names where the quadrature's dtbsv comes from.
"""

import json
import re
import tempfile
from importlib.metadata import version
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="fvptrunc-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def readme_document() -> dict:
    """A fresh dict of the README's config document, its ```json block."""
    block, = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return json.loads(block)


def pytest_report_header(config) -> str:
    from fvptrunc import quadrature

    bundled = quadrature._openblas_dtbsv() is not None
    source = "numpy's bundled OpenBLAS" if bundled else "scipy fallback"
    return f"dtbsv: {source} (numpy {version('numpy')}, scipy {version('scipy')})"
