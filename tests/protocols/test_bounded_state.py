"""Replica bookkeeping grows with the window, not with the run.

Every system runs closed-loop to two lengths, and every container a
node or cluster holds must end no larger (within a window's slack) at
the longer one — except the three kinds of state that code reads after
commit, listed in ``KEPT`` with the reason.  A container that starts
growing with operations anywhere else fails here.  The replicated logs
that do grow are held to a bytes-per-commit budget.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

import repro.core
import repro.protocols
from repro.harness import RunSpec
from repro.harness.factory import EXTENSION_SYSTEMS, SYSTEMS, prepare
from repro.protocols.entrylog import EntryLog
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
    if isinstance(v, EntryLog):
        return len(v)
    if isinstance(v, dict):
        return len(v) + sum(_footprint(x) for x in v.values()
                            if isinstance(x, _CONTAINERS))
    if isinstance(v, (list, set, frozenset)):
        return len(v) + sum(_footprint(x) for x in v
                            if isinstance(x, _CONTAINERS))
    return 0


def _run_to(client: ClosedLoopClient, commits: int) -> None:
    engine = client.system.engine
    while client.completed < commits:
        engine.run(until=engine.now + ms(0.1))


def _footprints(name: str, commits: int) -> dict[tuple[str, str], int]:
    """Per-(owner, attribute) footprint, taking the largest over the
    nodes, after ``commits`` closed-loop commits."""
    system = prepare(RunSpec(system=name, n=3, seed=3))
    client = ClosedLoopClient(system, window=WINDOW, message_size=64)
    client.start()
    _run_to(client, commits)
    out: dict[tuple[str, str], int] = {}
    owners = [("cluster", system)] + [("node", nd) for nd in system.nodes.values()]
    for owner, obj in owners:
        for attr, v in vars(obj).items():
            if isinstance(v, _CONTAINERS + (SlotSet, EntryLog)):
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


#: The systems whose replicated log (an ``EntryLog``) outlives commit.
#: Acuerdo's log is collected below the cluster commit frontier, so a
#: follower is crashed first: its frozen Commit-SST row pins the log,
#: as on a failover run.
LOG_SYSTEMS = ("acuerdo", "zookeeper", "etcd", "mu", "dare", "apus")
#: Counted in commits, not simulated time: Mu commits ~1 300 times per
#: sim-ms, and tracemalloc slows every allocation several-fold.
WARMUP, MEASURED = 100, 1000
#: 32 B per entry per replica at n=3: an ``EntryLog`` entry's 24 B
#: (payload reference, key, size) plus its columns' over-allocation.
MAX_RETAINED_BYTES_PER_COMMIT = 96


def _live_protocol_heap() -> tracemalloc.Snapshot:
    gc.collect()
    only = [tracemalloc.Filter(True, os.path.join(
        os.path.dirname(pkg.__file__), "*"))
        for pkg in (repro.protocols, repro.core)]
    return tracemalloc.take_snapshot().filter_traces(only)


def _retained_bytes_per_commit(name: str) -> float:
    """Live-heap growth that ``tracemalloc`` attributes to lines in
    ``repro/protocols/`` and ``repro/core/`` over ``MEASURED``
    closed-loop commits after ``WARMUP``, per commit."""
    system = prepare(RunSpec(system=name, n=3, seed=3))
    if name == "acuerdo":
        # The leader stops waiting on the crashed follower's ring
        # acknowledgments once it evicts it (1.2 ms of silence); the
        # measurement starts after that, so what grows is the log.
        system.crash(next(i for i in system.node_ids
                          if i != system.leader_id()))
        system.engine.run(until=system.engine.now + ms(2))
    client = ClosedLoopClient(system, window=WINDOW, message_size=64)
    tracemalloc.start()
    try:
        client.start()
        _run_to(client, WARMUP)
        before, done = _live_protocol_heap(), client.completed
        _run_to(client, WARMUP + MEASURED)
        after = _live_protocol_heap()
    finally:
        tracemalloc.stop()
    growth = sum(d.size_diff for d in after.compare_to(before, "filename"))
    return growth / (client.completed - done)


@pytest.mark.parametrize("name", LOG_SYSTEMS)
def test_retained_bytes_per_commit(name):
    per_commit = _retained_bytes_per_commit(name)
    assert per_commit <= MAX_RETAINED_BYTES_PER_COMMIT, \
        f"{name}: {per_commit:.0f} B retained per commit"
