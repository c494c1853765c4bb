"""Suite-wide hypothesis settings.

print_blob makes a failing property print the @reproduce_failure blob that
replays it, so a failure that shows only under one --hypothesis-seed can be
rerun without that seed. Per-test settings still choose max_examples and
deadline.
"""

from hypothesis import settings

settings.register_profile("fairfrontier", print_blob=True)
settings.load_profile("fairfrontier")
