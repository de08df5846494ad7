"""Property suites.

Every property sets its example budget through :func:`budget`, so the
``explore`` hypothesis profile (``tests/conftest.py``) draws ten times
as many examples as tier-1, whose budgets and derandomized draws stay
as written.
"""

import os


def budget(examples: int) -> int:
    """``max_examples`` for a property: ``examples`` under tier-1, ten
    times as many under ``REPRO_HYPOTHESIS_PROFILE=explore``."""
    if os.environ.get("REPRO_HYPOTHESIS_PROFILE") == "explore":
        return 10 * examples
    return examples
