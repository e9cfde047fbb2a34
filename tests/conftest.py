"""One Hypothesis profile for the whole suite.

Derandomized, so every run draws the same examples and a failing property
reproduces anywhere; no deadline, since exact computations take as long as
their instance needs on the host at hand.  A test's own ``@settings`` names
only what differs: its example count and any suppressed health check.
"""

from hypothesis import settings

settings.register_profile("secembed", deadline=None, derandomize=True)
settings.load_profile("secembed")
