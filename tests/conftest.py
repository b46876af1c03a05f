"""One hypothesis profile for every property test: derandomized, so each
run draws the same examples, with no deadline and no example database.
Each test's own ``@settings`` sets only ``max_examples``."""

try:
    from hypothesis import settings
except ImportError:  # the property tests fail to collect; the rest run
    pass
else:
    settings.register_profile("ellipmono", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("ellipmono")
