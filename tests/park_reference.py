"""The unparked reference schedule — the one place it is defined.

Production processes always elide polls that would observe nothing
(``repro.sim.process``, DESIGN.md §6).  The equivalence suites compare
that against the schedule parking must reproduce bit for bit: the same
poll loop with every tick left on the heap.  "Never park" is what a
plain :class:`Process` already does, so the reference is not a second
loop — it is the production loop with ``_can_park`` answering False.
"""

import contextlib
from unittest import mock

from repro.sim.process import Process


def park_mode(parked: bool):
    """Context manager: build AND drive a run inside its block.
    ``parked=True`` is the production schedule (the block changes
    nothing); ``parked=False`` is the reference: no process parks while
    the block is open.  The patch is per interpreter, so it does not
    reach spawned workers."""
    if parked:
        return contextlib.nullcontext()
    return mock.patch.object(Process, "_can_park", lambda self: False)
