"""The unparked loop is the oracle for everything parking elides.

``tests/properties/test_park_equivalence.py`` runs the golden-fingerprint
workload (24 messages, 20 us apart).  These runs are shaped like the
repo benchmark instead — the same five definitions ``bench/workloads.py``
ships, at a fraction of their simulated duration — because that is where
quiet heartbeat deposits, parking through a busy CPU and local wakes
that land exactly on a poll tick occur thousands of times: closed loops
at window 1 and 32, Zab over TCP, the 8-group Zipf farm, and the
two-crash fail-over.  A parked run must reproduce the ``REPRO_PARK=0``
run's exact latency sequence, commit instants and substrate counters.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

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


@pytest.mark.parametrize("name,seed,scale", CASES)
def test_parked_run_equals_unparked_oracle(monkeypatch, name, seed, scale):
    monkeypatch.setenv("REPRO_PARK", "1")
    parked, parked_events = observe(name, seed, scale)
    monkeypatch.setenv("REPRO_PARK", "0")
    oracle, oracle_events = observe(name, seed, scale)
    assert len(oracle["latencies"]) > 300
    for key in oracle:
        assert parked[key] == oracle[key], key
    assert parked_events < oracle_events
