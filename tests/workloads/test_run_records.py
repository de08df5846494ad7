"""Run records grow with operations, so they are unboxed columns.

A client keeps one latency sample (and, open-loop, one commit time) per
completed request, and ``LogPrefixAgreement`` keeps one canonical
delivery per log position: the state of a long run that grows with its
length.  ``tracemalloc`` holds each to the bytes of its columns.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import repro.monitors
import repro.workloads
from repro.harness import RunSpec
from repro.harness.factory import build_from_spec, settle
from repro.monitors.invariants import LogPrefixAgreement
from repro.monitors.registry import MonitorRegistry
from repro.sim.engine import Engine, ms, us
from repro.workloads.closedloop import ClosedLoopClient
from repro.workloads.openloop import OpenLoopClient

WARMUP, MEASURED = 100, 1000
#: A delivered position's time, node and payload reference: 24 B, plus
#: the columns' over-allocation (the parent kept a 128 B event each).
MAX_MONITOR_BYTES_PER_POSITION = 32
#: One 8 B ``array('q')`` slot, plus the column's over-allocation of
#: about a sixteenth (a boxed int in a list cost 40 B).
MAX_BYTES_PER_SAMPLE = 9

#: One payload object for every request: the system under test keeps
#: payload references (log, deliveries), which must not count as the
#: client's own records.
_PAYLOAD = ("cl", 0)


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


def _monitor_bytes_per_position() -> float:
    # LogPrefixAgreement alone: CommitQuorumAccept's per-commit sets
    # are a separate, known growth (see ROADMAP).
    engine = Engine(seed=3)
    MonitorRegistry(engine, factories=[LogPrefixAgreement])
    system = _acuerdo(engine)
    (monitor,) = engine.monitors.groups[None].monitors
    client = ClosedLoopClient(system, window=8, message_size=64)
    tracemalloc.start()
    try:
        client.start()
        _run_until(engine, lambda: client.completed >= WARMUP)
        before, positions = _heap(repro.monitors), len(monitor._key)
        _run_until(engine, lambda: client.completed >= WARMUP + MEASURED)
        after = _heap(repro.monitors)
    finally:
        tracemalloc.stop()
    return _growth(before, after) / (len(monitor._key) - positions)


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
    per_position = _monitor_bytes_per_position()
    assert per_position <= MAX_MONITOR_BYTES_PER_POSITION, \
        f"monitors retain {per_position:.1f} B per delivered position"
    for closed in (True, False):
        per_sample = _client_bytes_per_sample(closed)
        assert per_sample <= MAX_BYTES_PER_SAMPLE, \
            f"{'closed' if closed else 'open'}-loop client retains " \
            f"{per_sample:.1f} B per sample"
