"""Replica bookkeeping grows with the window, not with the run.

Every system runs closed-loop to two lengths, and every container a
node or cluster holds must end no larger (within a window's slack) at
the longer one — except the three kinds of state that code reads after
commit, listed in ``KEPT`` with the reason.  A container that starts
growing with operations anywhere else fails here.
"""

from __future__ import annotations

import pytest

from repro.core.log import MessageLog
from repro.harness import RunSpec
from repro.harness.factory import EXTENSION_SYSTEMS, SYSTEMS, prepare
from repro.protocols.tcpreplica import SlotSet
from repro.sim import ms
from repro.workloads.closedloop import ClosedLoopClient

WINDOW = 8
SHORT, LONG = 400, 1600
SLACK = 4 * WINDOW

_LOG = ("the replicated log: a new leader's state transfer (Zab SYNC, "
        "Raft AppendEntries, the remote-log hand-off, Derecho's ragged "
        "trim, Acuerdo's diff) reads committed entries")
_ACCEPTOR = ("acceptor state: PROMISE answers PREPARE with every accepted "
             "instance at or above the new proposer's next_deliver")
_RELAYED = ("a late copy of a delivered (slot, value) must still not be "
            "relayed a second time")

#: (system, attribute) -> why the container outlives commit.
KEPT = {
    ("acuerdo", "log"): _LOG + "; _gc trims it below the cluster commit "
                        "frontier once per gc period",
    ("zookeeper", "log"): _LOG,
    ("etcd", "log"): _LOG,
    ("apus", "log"): _LOG,
    ("dare", "log"): _LOG,
    ("mu", "log"): _LOG,
    ("derecho-leader", "msgs"): _LOG,
    ("derecho-all", "msgs"): _LOG,
    ("libpaxos", "promised"): _ACCEPTOR,
    ("libpaxos", "accepted"): _ACCEPTOR,
    ("dolev", "_relayed"): _RELAYED,
}

_CONTAINERS = (dict, list, set, frozenset)


def _footprint(v) -> int:
    """Entries a container retains, nested containers included; a
    SlotSet retains only its members above the watermark."""
    if isinstance(v, SlotSet):
        return len(v.above)
    if isinstance(v, MessageLog):
        return len(v)
    if isinstance(v, dict):
        return len(v) + sum(_footprint(x) for x in v.values()
                            if isinstance(x, _CONTAINERS))
    if isinstance(v, (list, set, frozenset)):
        return len(v) + sum(_footprint(x) for x in v
                            if isinstance(x, _CONTAINERS))
    return 0


def _footprints(name: str, commits: int) -> dict[tuple[str, str], int]:
    """Per-(owner, attribute) footprint, taking the largest over the
    nodes, after ``commits`` closed-loop commits."""
    system = prepare(RunSpec(system=name, n=3, seed=3))
    client = ClosedLoopClient(system, window=WINDOW, message_size=64)
    client.start()
    engine = system.engine
    while client.completed < commits:
        engine.run(until=engine.now + ms(0.1))
    out: dict[tuple[str, str], int] = {}
    owners = [("cluster", system)] + [("node", nd) for nd in system.nodes.values()]
    for owner, obj in owners:
        for attr, v in vars(obj).items():
            if isinstance(v, _CONTAINERS + (SlotSet, MessageLog)):
                key = (owner, attr)
                out[key] = max(out.get(key, 0), _footprint(v))
    return out


@pytest.mark.parametrize("name", SYSTEMS + EXTENSION_SYSTEMS)
def test_bookkeeping_is_bounded_by_the_window(name):
    short, long = _footprints(name, SHORT), _footprints(name, LONG)
    kept = {attr for (system, attr) in KEPT if system == name}
    assert kept <= {attr for (_owner, attr) in long}, "stale KEPT entry"
    grew = {key: (short.get(key, 0), size) for key, size in long.items()
            if key[1] not in kept and size > short.get(key, 0) + SLACK}
    assert not grew, f"{name}: bookkeeping grows with operations: {grew}"
