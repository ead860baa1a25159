"""Suite-wide test settings.

Hypothesis draws the same examples on every run (derandomize) and keeps no
example database, so a property test cannot pass on one run and fail on
the next.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
