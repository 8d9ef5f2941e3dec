"""One hypothesis profile for every property test.

Property tests run derandomized, with no example database and no
deadline, so a run's examples are fixed by the code it runs. That is
more than a test's own source: hypothesis also draws from the literal
constants it collects from the project's imported `src/` modules, so
changing a number anywhere in the package can change the examples of
an unrelated test. A failure that such a change surfaces is a real
input; pin it with `@example` and fix the defect it shows. Each test
sets its own max_examples.
"""

from hypothesis import settings

settings.register_profile("scan2plan", deadline=None, database=None, derandomize=True)
settings.load_profile("scan2plan")
