"""Test-suite settings.

Hypothesis draws its examples from a seed derived from each test, so every
run of the suite tries the same examples and its result does not depend on
the draw.  Each test's own settings (examples, deadlines) still apply.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
