"""The unparked loop is the oracle for everything parking elides.

``tests/properties/test_park_equivalence.py`` runs the golden-fingerprint
workload (24 messages, 20 us apart).  These runs are shaped like the
repo benchmark instead — the same five definitions ``bench/workloads.py``
ships, at a fraction of their simulated duration — because that is where
quiet heartbeat deposits, parking through a busy CPU and local wakes
that land exactly on a poll tick occur thousands of times: closed loops
at window 1 and 32, Zab over TCP, the 8-group Zipf farm, and the
two-crash fail-over.  A parked run must reproduce the unparked
reference run's (``tests.park_reference``) exact latency sequence,
commit instants and substrate counters.

Heartbeat trains (``repro.core.trains``) get their own cases too: a
window-1 Acuerdo closed loop cut by a partition that isolates a
follower or the leader, healed mid-run, and then a leader crash — so the
trains are caught up at the cut, the heal and the crash, and must still
land every elided heartbeat where the unparked reference does.

The device path gets its own cases: closed loops over ZooKeeper and etcd
at windows 1 and 32, where every commit waits on a group-committed fsync
and the nodes park through it (``Disk`` rings the owner's doorbell on
completion).  Window 1 leaves the leader idle between a proposal and its
sync, window 32 keeps the log device saturated.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from repro.harness.factory import build_from_spec, settle
from repro.harness.runspec import RunSpec
from repro.sim.engine import ms
from repro.sim.failure import arm_faults
from tests.park_reference import park_mode

_BENCH = pathlib.Path(__file__).resolve().parents[2] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH)
bench_workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_workloads     # dataclasses resolve their module
_spec.loader.exec_module(bench_workloads)

#: (workload, seed, share of the benchmark's simulated duration)
CASES = [
    ("acuerdo_sat_1k_w32", 3, 0.05),
    ("acuerdo_floor_64b_w1", 3, 0.1),
    ("zab_tcp_1k_w32", 3, 0.03),
    ("farm8_zipf_open", 5, 0.3),
    ("acuerdo_failover_n5_open", 3, 0.5),
]


def observe(name: str, seed: int, scale: float) -> tuple[dict, int]:
    p = bench_workloads.prepare(name, seed, scale)
    p.drive(lambda: None)
    client = p.client
    closed = hasattr(client, "ack_times")
    observed = {
        "latencies": list(client.latencies if closed else client.latencies_ns),
        "commit_times": list(client.ack_times if closed else client.commit_times),
        "substrate": [sorted(g.substrate_counters().items()) for g in p.groups],
        "leaders": [g.leader_id() for g in p.groups],
        "crashed": list(p.crashed),
        "elections": list(p.engine.trace.series("acuerdo.election_duration_ns")),
        "tracer": sorted(p.engine.trace.summary().items()),
    }
    return observed, p.engine.events_executed


#: (system, window, simulated ms)
DEVICE_CASES = [
    ("zookeeper", 1, 80.0),
    ("zookeeper", 32, 20.0),
    ("etcd", 1, 300.0),
    ("etcd", 32, 80.0),
]


def observe_closed_loop(system_name: str, window: int,
                        sim_ms: float) -> tuple[dict, int]:
    spec = RunSpec(system=system_name, n=3, payload_bytes=1000, window=window,
                   seed=3, duration_ms=sim_ms)
    engine = spec.make_engine()
    system = build_from_spec(spec, engine)
    settle(system)
    client = bench_workloads.AckTimedClosedLoop(
        system, window=window, message_size=spec.payload_bytes)
    client.start()
    engine.run(until=engine.now + ms(sim_ms))
    observed = {
        "latencies": list(client.latencies),
        "commit_times": list(client.ack_times),
        "substrate": sorted(system.substrate_counters().items()),
        "tracer": sorted(engine.trace.summary().items()),
    }
    return observed, engine.events_executed


#: (partition, sim ms of the leader crash) on a 3-node Acuerdo window-1
#: closed loop: cut a follower off, or the leader, and heal mid-run.
PARTITION_CASES = [
    ("0,1|2@0.5-1.5", 3.0),
    ("1,2|0@0.5-1.5", 3.0),
]


def observe_partitioned(partition: str, crash_ms: float) -> tuple[dict, int]:
    spec = RunSpec(system="acuerdo", n=3, payload_bytes=64, window=1,
                   seed=3, duration_ms=5.0, partitions=[partition])
    engine = spec.make_engine()
    system = build_from_spec(spec, engine)
    settle(system)
    arm_faults(engine, spec.faults, {0: system})
    engine.schedule_at(engine.now + ms(crash_ms),
                       lambda: system.crash(system.leader_id()))
    client = bench_workloads.AckTimedClosedLoop(system, window=1,
                                                message_size=64)
    client.start()
    engine.run(until=engine.now + ms(spec.duration_ms))
    observed = {
        "latencies": list(client.latencies),
        "commit_times": list(client.ack_times),
        "substrate": sorted(system.substrate_counters().items()),
        "leaders": [system.leader_id()],
        "elections": list(engine.trace.series("acuerdo.election_duration_ns")),
        "tracer": sorted(engine.trace.summary().items()),
    }
    return observed, engine.events_executed


def _assert_parked_equals_oracle(run, *args):
    parked, parked_events = run(*args)
    with park_mode(False):
        oracle, oracle_events = run(*args)
    assert len(oracle["latencies"]) > 300
    for key in oracle:
        assert parked[key] == oracle[key], key
    assert parked_events < oracle_events


@pytest.mark.parametrize("name,seed,scale", CASES)
def test_parked_run_equals_unparked_oracle(name, seed, scale):
    _assert_parked_equals_oracle(observe, name, seed, scale)


@pytest.mark.parametrize("system_name,window,sim_ms", DEVICE_CASES)
def test_parking_through_fsync_equals_unparked_oracle(system_name, window, sim_ms):
    _assert_parked_equals_oracle(observe_closed_loop, system_name, window, sim_ms)


@pytest.mark.parametrize("partition,crash_ms", PARTITION_CASES)
def test_trains_through_cut_heal_and_crash_equal_unparked_oracle(partition,
                                                                 crash_ms):
    _assert_parked_equals_oracle(observe_partitioned, partition, crash_ms)
