"""Hypothesis settings for the whole suite.

The property tests draw the same examples on every run (``derandomize``), so
a rare falsifying example cannot turn the suite red at random; each test's
``max_examples`` and ``@example``s are its own. To search for new
counterexamples, run ``pytest --hypothesis-profile=default``: Hypothesis'
own profile draws fresh examples each time.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
