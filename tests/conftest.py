"""One hypothesis profile for every property test.

Property tests run derandomized, so the examples a test draws depend on
its source alone, with no example database and no deadline. Each test
sets its own max_examples.
"""

from hypothesis import settings

settings.register_profile("scan2plan", deadline=None, database=None, derandomize=True)
settings.load_profile("scan2plan")
