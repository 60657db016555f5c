import os

from hypothesis import settings

# `ci` draws the same examples on every run, so a failure in CI reproduces
# locally with HYPOTHESIS_PROFILE=ci; without the variable hypothesis draws
# fresh examples as usual.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
