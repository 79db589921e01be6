"""Hypothesis profiles. `--hypothesis-profile=ci` draws the same examples on
every run, so a property test cannot fail on one CI run and pass on the next;
local runs keep the random default."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
