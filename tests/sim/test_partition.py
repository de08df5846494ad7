"""Partition schedules: grammar, injection surface, and determinism.

``--partition "GROUPS@MS[-MS]"`` entries flow through
:func:`repro.sim.failure.parse_partition` into a
:class:`~repro.sim.failure.FaultPlan`, which
:func:`~repro.sim.failure.arm_faults` schedules against the
deployment's substrate.  The schedule must be deterministic — the same
cut and heal produce the same observable run whether idle poll loops
park or stay on the heap (the ``tests.park_reference`` schedule).
"""

from __future__ import annotations

import pytest

from repro.harness.factory import build_from_spec, settle
from repro.harness.runspec import RunSpec
from repro.sim.engine import Engine, ms, us
from repro.sim.failure import (
    FaultPlan,
    arm_faults,
    parse_partition,
)
from tests.park_reference import park_mode


# ----------------------------------------------------------- the grammar


def test_parse_partition_entries():
    assert parse_partition("0,1|2@5") == (((0, 1), (2,)), 5.0, None)
    assert parse_partition("0,1|2@5-20") == (((0, 1), (2,)), 5.0, 20.0)
    assert parse_partition("0|1|2@0.5") == (((0,), (1,), (2,)), 0.5, None)
    assert parse_partition("0, 1|2@1") == (((0, 1), (2,)), 1.0, None)


@pytest.mark.parametrize("bad", [
    "0,1|2",            # no @MS
    "@5",               # no groups
    "0,1|2@soon",       # non-numeric time
    "0,1|2@5-x",        # non-numeric heal time
    "0,1|2@-1",         # negative start
    "0,1|2@5-2",        # heal before cut
    "0,x|2@5",          # non-int node id
    "0,|2@5",           # empty member
    "|@5",              # empty groups
])
def test_parse_partition_rejects_malformed_entries(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


def test_runspec_validates_partition_entries_eagerly():
    spec = RunSpec(system="acuerdo", partitions=["0,1|2@5-20"])
    assert spec.partitions == ("0,1|2@5-20",)    # normalised to a tuple
    with pytest.raises(ValueError):
        RunSpec(system="acuerdo", partitions=("0,1|2",))


# ------------------------------------------------------------- injection


def test_schedule_partitions_empty_schedule_is_none():
    engine = Engine(seed=1)
    arm_faults(engine, FaultPlan(), {0: None})
    assert engine.heap_pushes == 0


def test_partition_drops_cross_group_traffic_then_heals():
    """Cut the ZAB leader (node 2) off mid-workload: the substrate
    counts the dropped crossings, commits stall for the partition
    window, and progress resumes once the schedule heals the cut."""
    engine = Engine(seed=7)
    system = build_from_spec(RunSpec(system="zookeeper", n=3), engine)
    settle(system)
    assert system.leader_id() == 2
    arm_faults(engine, FaultPlan.parse(partitions=["0,1|2@0.5-8"]),
               {0: system})
    state = {"submitted": 0}

    def pump():
        if state["submitted"] < 24:
            if system.submit(("m", state["submitted"]), 64):
                state["submitted"] += 1
            engine.schedule(us(100), pump)

    engine.schedule(0, pump)
    engine.run(until=engine.now + ms(5))
    assert system.substrate.partition_drops > 0    # the cut actually bit
    counts_mid = dict(system.deliveries.counts)
    assert all(c < 24 for c in counts_mid.values())   # commits stalled
    engine.run(until=engine.now + ms(25))
    assert system.substrate._partition is None        # healed on schedule
    counts_end = dict(system.deliveries.counts)
    # The healed majority re-elects and resumes committing.
    assert sum(counts_end.values()) > sum(counts_mid.values())


# ---------------------------------------------------------- determinism


def _partitioned_run(name: str, entry: str = "0,1|2@1-6"):
    engine = Engine(seed=7)
    system = build_from_spec(RunSpec(system=name, n=3), engine)
    settle(system)
    arm_faults(engine, FaultPlan.parse(partitions=[entry]), {0: system})
    state = {"submitted": 0}
    deliveries: list = []
    system.delivery_listeners.append(
        lambda node_id, payload: deliveries.append(
            (node_id, payload, engine.now)))

    def pump():
        if state["submitted"] < 24:
            if system.submit(("m", state["submitted"]), 64):
                state["submitted"] += 1
            engine.schedule(us(20), pump)

    engine.schedule(0, pump)
    engine.run(until=engine.now + ms(30))
    return (engine.trace.fingerprint(),
            tuple(sorted(system.deliveries.counts.items())),
            tuple(deliveries),
            system.substrate.partition_drops), engine.events_executed


@pytest.mark.parametrize("name", ["acuerdo", "zookeeper"])
def test_partition_and_heal_are_park_invariant(name):
    """The cut and the heal land at the same simulated instants whether
    idle poll loops are parked or not: bit-identical observable runs."""
    parked, parked_events = _partitioned_run(name)
    with park_mode(False):
        unparked, unparked_events = _partitioned_run(name)
    assert parked == unparked
    assert parked_events <= unparked_events


def test_partitioned_run_is_seed_deterministic():
    a, _ = _partitioned_run("zookeeper")
    b, _ = _partitioned_run("zookeeper")
    assert a == b
