"""Shared test configuration.

Property tests draw the same cases on every run: the hypothesis profile
below is derandomized (which also turns off the example database), has no
per-example deadline, since timings swing with the host's load, and a
fixed example count.  Without hypothesis the property tests skip
themselves and this file does nothing.
"""

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("recipgas", derandomize=True, deadline=None,
                              max_examples=40)
    settings.load_profile("recipgas")
