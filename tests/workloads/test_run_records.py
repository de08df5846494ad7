"""Run records grow with operations, so they are unboxed columns.

A client keeps one latency sample (and, open-loop, one commit time) per
completed request, and ``LogPrefixAgreement`` keeps one canonical
delivery per log position: the state of a long run that grows with its
length.  ``tracemalloc`` holds each to the bytes of its columns, and
the whole default monitor set to those of ``LogPrefixAgreement``.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

import repro.workloads
from repro.harness import RunSpec
from repro.harness.factory import build_from_spec, prepare, settle
from repro.sim.engine import Engine, ms, us
from repro.workloads.closedloop import ClosedLoopClient
from repro.workloads.openloop import OpenLoopClient

WARMUP, MEASURED = 100, 1000
#: A delivered position's time, node and payload reference in
#: ``LogPrefixAgreement``'s columns (24 B, plus over-allocation).  The
#: rest of the default set keeps O(in-flight) state: a set of every
#: committed slot and every slot's accepts cost 82 to 1 100 B per
#: commit on these systems.
MAX_MONITOR_BYTES_PER_COMMIT = 40
#: One 8 B ``array('q')`` slot, plus the column's over-allocation of
#: about a sixteenth (a boxed int in a list cost 40 B).
MAX_BYTES_PER_SAMPLE = 9

#: One payload object for every request: the system under test keeps
#: payload references (log, deliveries, the monitors' canonical order),
#: and the payloads are the application's, not the client's or the
#: monitors' records.  With a fresh payload per request the canonical
#: order keeps every payload alive once Acuerdo's log collection or
#: Bracha's delivery has let go of it.
_PAYLOAD = ("cl", 0)

#: Each family of monitor state: a cumulative frontier (acuerdo,
#: zookeeper), per-slot accepts without (libpaxos, bracha) and with
#: (derecho-leader) ring bindings.
MONITORED_SYSTEMS = ("acuerdo", "libpaxos", "derecho-leader", "bracha",
                     "zookeeper")

#: Allocations made by first imports and by tracemalloc itself are not
#: the run's.
_NOT_THE_RUN = [tracemalloc.Filter(False, "<frozen importlib._bootstrap>"),
                tracemalloc.Filter(False, "<frozen importlib._bootstrap_external>"),
                tracemalloc.Filter(False, tracemalloc.__file__)]


def _heap(pkg) -> tracemalloc.Snapshot:
    gc.collect()
    only = tracemalloc.Filter(True, os.path.join(
        os.path.dirname(pkg.__file__), "*"))
    return tracemalloc.take_snapshot().filter_traces([only])


def _growth(before: tracemalloc.Snapshot, after: tracemalloc.Snapshot) -> int:
    return sum(d.size_diff for d in after.compare_to(before, "filename"))


def _acuerdo(engine: Engine):
    system = build_from_spec(RunSpec(system="acuerdo", n=3), engine)
    settle(system)
    return system


def _run_until(engine: Engine, done) -> None:
    while not done():
        engine.run(until=engine.now + ms(0.1))


def _heap_growth_per_commit(name: str, monitored: bool) -> float:
    """Growth of the whole live heap over ``MEASURED`` closed-loop
    commits after ``WARMUP``, per commit."""
    system = prepare(RunSpec(system=name, n=3, seed=3, window=8,
                             check_invariants=monitored))
    engine = system.engine
    client = ClosedLoopClient(system, window=8, message_size=64,
                              payload_fn=lambda i: _PAYLOAD)
    tracemalloc.start()
    try:
        client.start()
        _run_until(engine, lambda: client.completed >= WARMUP)
        gc.collect()
        before, done = tracemalloc.take_snapshot(), client.completed
        _run_until(engine, lambda: client.completed >= WARMUP + MEASURED)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    growth = _growth(before.filter_traces(_NOT_THE_RUN),
                     after.filter_traces(_NOT_THE_RUN))
    return growth / (client.completed - done)


@pytest.mark.parametrize("name", MONITORED_SYSTEMS)
def test_default_monitor_set_retains_bytes_per_commit(name):
    # The monitored run's heap growth minus its unmonitored twin's (the
    # schedules are identical), so whatever the monitors keep alive
    # counts wherever it was allocated: a slot object the protocol made
    # and a monitor pinned is the monitors' cost.
    per_commit = (_heap_growth_per_commit(name, monitored=True)
                  - _heap_growth_per_commit(name, monitored=False))
    assert per_commit <= MAX_MONITOR_BYTES_PER_COMMIT, \
        f"{name}: the monitors retain {per_commit:.1f} B per commit"


def _client_bytes_per_sample(closed: bool) -> float:
    engine = Engine(seed=3)
    system = _acuerdo(engine)
    if closed:
        client = ClosedLoopClient(system, window=8, message_size=64,
                                  payload_fn=lambda i: _PAYLOAD)
        samples = lambda: len(client.latencies)                 # noqa: E731
    else:
        client = OpenLoopClient(system, period_ns=us(2), message_size=64,
                                payload_fn=lambda i: _PAYLOAD)
        samples = lambda: (len(client.latencies_ns)             # noqa: E731
                           + len(client.commit_times))
    tracemalloc.start()
    try:
        client.start()
        _run_until(engine, lambda: samples() >= WARMUP)
        before, taken = _heap(repro.workloads), samples()
        _run_until(engine, lambda: samples() >= WARMUP + MEASURED)
        after = _heap(repro.workloads)
    finally:
        tracemalloc.stop()
    return _growth(before, after) / (samples() - taken)


def test_run_records_retain_their_columns_only():
    for closed in (True, False):
        per_sample = _client_bytes_per_sample(closed)
        assert per_sample <= MAX_BYTES_PER_SAMPLE, \
            f"{'closed' if closed else 'open'}-loop client retains " \
            f"{per_sample:.1f} B per sample"
