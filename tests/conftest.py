"""Suite-wide test settings.

Hypothesis draws the same examples on every run (derandomize) and keeps no
example database, so a property test cannot pass on one run and fail on
the next.  Its other storage (it caches the literal constants of the code
under test whatever the database setting) goes to a temporary directory
that is removed when the run ends, so a test run leaves no `.hypothesis/`
in the checkout.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="fvptrunc-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
