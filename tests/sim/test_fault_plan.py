"""One parsed fault plan.

``RunSpec.crashes`` / ``.partitions`` / ``.byz`` are parsed once into a
typed :class:`~repro.sim.failure.FaultPlan` whose entries name an
explicit group and a bare node id, validated against the spec's
``shards`` and ``n`` when the spec is built, and armed by
:func:`~repro.sim.failure.arm_faults` — the same way on a single-group
run and on a farm.
"""

from __future__ import annotations

import pickle
import re

import pytest

from repro.__main__ import main
from repro.harness.factory import prepare
from repro.harness.runspec import RunSpec
from repro.sim.engine import Engine, ms
from repro.sim.failure import (ByzEntry, CrashEntry, FaultPlan, PartitionEntry,
                               arm_faults)

FARM = dict(system="acuerdo", n=3, workload="openloop", shards=4,
            users=500, arrival_rate=100_000.0)


# ------------------------------------------------------------- the plan


def test_entries_carry_a_group_and_a_bare_node():
    spec = RunSpec(system="acuerdo", crashes=["1@2", "0:2@3"],
                   partitions=["0,1|0:2@1-4"], byz=["tamper:0:1@0.5"])
    assert spec.faults == FaultPlan(
        crashes=(CrashEntry(0, 1, 2.0), CrashEntry(0, 2, 3.0)),
        partitions=(PartitionEntry(0, ((0, 1), (2,)), 1.0, 4.0),),
        byz=(ByzEntry("tamper", 0, 1, 0.5),))


def test_farm_entries_keep_their_group():
    spec = RunSpec(**FARM, crashes=["2:1@1"], partitions=["3:0|3:1,3:2@1"])
    assert spec.faults.crashes == (CrashEntry(2, 1, 1.0),)
    assert spec.faults.partitions == (
        PartitionEntry(3, ((0,), (1, 2)), 1.0, None),)


def test_plan_is_derived_not_a_field():
    spec = RunSpec(system="acuerdo", crashes=["1@2"])
    assert "faults" not in spec.to_dict()
    assert RunSpec.from_dict(spec.to_dict()) == spec
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec and clone.faults == spec.faults


def test_entries_of_groups_outside_the_map_are_skipped():
    engine = Engine(seed=1)
    spec = RunSpec(**FARM, crashes=["2:1@1"], partitions=["3:0|3:1@1-2"])
    arm_faults(engine, spec.faults, {})
    assert engine.heap_pushes == 0


# ------------------------------------- one address rule on one group


def test_group_zero_crash_lands_on_a_single_group_run():
    system = prepare(RunSpec(system="acuerdo", crashes=["0:1@0.5"]))
    system.engine.run(until=system.engine.now + ms(1))
    assert [p.node_id for p in system.processes() if p.crashed] == [1]


def _cut_then_fingerprint(entry: str):
    system = prepare(RunSpec(system="acuerdo", partitions=[entry]))
    engine = system.engine
    engine.run(until=engine.now + ms(1))
    cut = system.substrate._partition
    engine.run(until=engine.now + ms(2))
    return cut, engine.trace.fingerprint()


def test_group_zero_partition_cuts_like_the_bare_spelling():
    scoped = _cut_then_fingerprint("0:0,0:1|0:2@0.5-1.5")
    assert scoped[0] == [frozenset({0, 1}), frozenset({2})]
    assert scoped == _cut_then_fingerprint("0,1|2@0.5-1.5")


@pytest.mark.parametrize("field, entry, what", [
    ("crashes", "1:1@1", "crash"),
    ("partitions", "1:0|1:1,1:2@1", "partition"),
    ("byz", "tamper:5:1@0.1", "byz"),
])
def test_other_groups_rejected_on_a_single_group_run(field, entry, what):
    with pytest.raises(ValueError, match=f"{what} schedule .* names group "
                                         f".*only has group 0"):
        RunSpec(system="acuerdo", **{field: [entry]})


# --------------------------------------------- node ids checked against n


@pytest.mark.parametrize("field, entry", [
    ("crashes", "7@1"),
    ("crashes", "-1@1"),
    ("crashes", "0:3@1"),
    ("partitions", "0,1|9@0.1-0.2"),
    ("byz", "tamper:9@0.1"),
])
def test_node_ids_checked_against_n(field, entry):
    with pytest.raises(ValueError, match=r"valid node ids are 0\.\.2"):
        RunSpec(system="acuerdo", n=3, **{field: [entry]})


def test_node_ids_checked_on_farms_and_on_replace():
    with pytest.raises(ValueError, match=r"names node 3.*0\.\.2"):
        RunSpec(**FARM, crashes=["2:3@1"])
    spec = RunSpec(system="acuerdo", n=5, crashes=["4@1"])
    assert spec.faults.crashes == (CrashEntry(0, 4, 1.0),)
    with pytest.raises(ValueError, match=r"0\.\.2"):
        spec.replace(n=3)


# ------------------------------------- one cut per group at a time


@pytest.mark.parametrize("cuts", [
    ["0|1,2@1-5", "1|0,2@2-3"],     # nested: its heal ended both cuts
    ["1|0,2@2-3", "0|1,2@1-2"],     # touching, listed out of order
    ["0|1,2@1", "1|0,2@2-3"],       # an open-ended cut never ends
])
def test_intersecting_windows_of_one_group_rejected(cuts):
    first, second = (repr(c) for c in cuts)
    with pytest.raises(ValueError, match=rf"{re.escape(first)} and "
                                         rf"{re.escape(second)} cut group 0"):
        RunSpec(system="zookeeper", n=3, partitions=cuts)


def test_disjoint_windows_and_other_groups_accepted():
    spec = RunSpec(system="zookeeper", n=3,
                   partitions=["0|1,2@1-2", "1|0,2@2.5-3"])
    assert [p.end_ms for p in spec.faults.partitions] == [2.0, 3.0]
    farm = RunSpec(**FARM, partitions=["0:0|0:1,0:2@1-5", "1:1|1:0,1:2@2-3"])
    assert [p.group for p in farm.faults.partitions] == [0, 1]


# ------------------------------------------------------------------ CLI


@pytest.mark.parametrize("argv", [
    ["shootout", "--systems", "acuerdo", "--partition", "0,1|9@0.1-0.2"],
    ["shard", "--shards", "1", "--byz", "tamper:9@0.1"],
    ["trace", "--system", "acuerdo", "--crash", "7@1"],
])
def test_cli_bad_fault_flag_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "valid node ids are 0..2" in err


def test_cli_intersecting_partitions_exit_2(capsys):
    argv = ["shootout", "--systems", "zookeeper", "--partition",
            "0|1,2@1-5", "--partition", "1|0,2@2-3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "windows that intersect" in err
