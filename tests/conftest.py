"""Suite-wide hypothesis profiles.

``tier1``, the default, is deterministic: ``derandomize=True`` draws the
same examples on every run and every machine, and ``database=None``
replays nothing from a local example store, so a tier-1 outcome is a
function of the tree alone.  ``REPRO_HYPOTHESIS_PROFILE=explore``
selects ``explore``: fresh random examples on every run, ten times as
many per property (``tests.properties.budget``), still with no store,
and each failure printed with the blob that replays it
(``@reproduce_failure``), to be pinned as an ``@example`` on its
property.  CI runs ``explore`` over ``tests/properties/`` on a schedule.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None,
                          print_blob=True)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "tier1"))
