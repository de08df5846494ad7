"""Monitors-on sweeps over healthy systems: zero violations, identical
behaviour.

The monitors' value depends on silence when nothing is wrong — a
false positive on any of the nine golden systems, on a sharded farm or
across election churn would make ``--check-invariants`` unusable as a
CI gate.  These runs also pin the zero-interference contract: a
monitored run must produce the bit-identical measurement of the same
spec unmonitored (monitors observe, never steer).
"""

from __future__ import annotations

import pytest

from repro.harness import RunSpec
from repro.harness.factory import EXTENSION_SYSTEMS, SYSTEMS
from repro.harness.fig8 import point

ALL_SYSTEMS = SYSTEMS + EXTENSION_SYSTEMS


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_golden_systems_run_clean_under_monitors(name):
    spec = RunSpec(system=name, n=3, payload_bytes=10, window=4,
                   check_invariants=True)
    collect: dict = {}
    p = point(spec, min_completions=120, collect=collect)
    assert p.completed >= 120, (name, p.completed)
    assert collect["violations"] == 0, name


def test_monitored_run_is_bit_identical_to_unmonitored():
    spec = RunSpec(system="acuerdo", n=3, payload_bytes=100, window=8)
    plain = point(spec, min_completions=200)
    checked = point(spec.replace(check_invariants=True), min_completions=200)
    assert checked == plain


def test_follower_crash_run_stays_clean():
    # Crash a follower mid-run: the quorum path keeps committing and the
    # monitors must not mistake the survivor re-quorum for a violation.
    spec = RunSpec(system="acuerdo", n=3, payload_bytes=10, window=4,
                   crashes=("2@3",), check_invariants=True)
    collect: dict = {}
    p = point(spec, min_completions=200, collect=collect)
    assert p.completed >= 200
    assert collect["violations"] == 0


def test_election_churn_stays_clean():
    # Repeated leader kills exercise the leader/term events hardest;
    # elections() raises on any violation itself, so a false positive
    # fails here.
    from repro.harness.table1 import election_spec, elections

    spec = election_spec(3, kills=2, kill_period_ms=2.0)
    durations = elections(spec.replace(check_invariants=True), kills=2)
    # Both kills fire; at least one fail-over completes inside the short
    # run (the monitors audited all of the churn either way).
    assert len(durations) >= 1


def test_five_node_churn_with_slow_nodes_stays_clean():
    # n=5 adds slow followers and exercises the heartbeat-eviction /
    # epoch re-baselining path: a deposed leader waking from its kill
    # window gets its ring floor jumped administratively.  Those floor
    # jumps release unaccepted old-epoch slots (recovered by the next
    # epoch's diff) and must be tagged admin, not reported as early
    # release.
    from repro.harness.table1 import election_spec, elections

    spec = election_spec(5, kills=2, kill_period_ms=4.0)
    durations = elections(spec.replace(check_invariants=True), kills=2)
    assert len(durations) >= 1


def test_eight_shard_farm_runs_clean_per_group():
    from repro.harness.hostperf import SHARD_POINT
    from repro.harness.shardsweep import shard_point

    spec = SHARD_POINT.replace(duration_ms=4.0, check_invariants=True)
    pt = shard_point(spec)
    assert pt.shards == 8 and pt.committed > 0
    assert pt.violations == 0


def test_sharded_farm_monitors_every_group_independently():
    # The registry must hold one monitor set per consensus group — the
    # per-shard instances are what let one forged group fire without
    # implicating its neighbours.
    from repro.harness.hostperf import SHARD_POINT
    from repro.monitors import MonitorRegistry
    from repro.shard import ShardedDeployment

    spec = SHARD_POINT.replace(shards=4, duration_ms=2.0,
                               check_invariants=True)
    engine = spec.make_engine()
    assert isinstance(engine.monitors, MonitorRegistry)
    dep = ShardedDeployment(engine, system=spec.system, shards=4, n=spec.n)
    dep.settle()
    assert set(engine.monitors.groups) == {0, 1, 2, 3}
    # Forge a second leader inside shard 2 only.
    engine.monitors.ingest(2, "acuerdo", 3, "leader", 0, t=engine.now,
                           term="forged")
    engine.monitors.ingest(2, "acuerdo", 3, "leader", 1, t=engine.now,
                           term="forged")
    vs = engine.monitors.finish()
    assert [v.group for v in vs] == [2]


@pytest.mark.parametrize("name", ["zookeeper", "etcd"])
def test_no_event_from_a_node_after_its_crash(name):
    # A follower dies 20 us into a log sync with a window of proposals
    # queued behind it.  The device must not go on to report that sync
    # (or the ones queued) as accepts of a host that no longer exists:
    # CommitQuorumAccept would count them toward a quorum.
    from repro.harness.factory import build_from_spec, settle
    from repro.monitors import DEFAULT_MONITORS, Monitor, MonitorRegistry
    from repro.sim.engine import ms, us
    from repro.workloads.closedloop import ClosedLoopClient

    seen = []

    class Recorder(Monitor):
        def on_mark(self, ev):
            seen.append(ev)

    spec = RunSpec(system=name, n=3, payload_bytes=1000, window=32)
    engine = spec.make_engine()
    MonitorRegistry(engine, factories=[*DEFAULT_MONITORS, Recorder])
    system = build_from_spec(spec, engine)
    settle(system)
    ClosedLoopClient(system, window=32, message_size=1000).start()
    engine.run(until=engine.now + ms(2))
    victim = next(nd for nd in system.processes()
                  if nd.node_id != system.leader_id())
    syncs = victim.disk.syncs
    while victim.disk.syncs == syncs:       # run up to the next sync's start
        assert engine.step()
    engine.run(until=engine.now + us(20))
    system.crash(victim.node_id)
    crashed_at = engine.now
    engine.run(until=crashed_at + ms(3))
    assert any(ev.node == victim.node_id for ev in seen)
    assert [ev for ev in seen
            if ev.node == victim.node_id and ev.t > crashed_at] == []
    assert engine.monitors.finish() == []
    assert victim.disk.queue_depth == 0


#: The event kinds each system emits in the follower-crash run below.
CRASH_RUN_KINDS = {
    "acuerdo": {"leader", "accept", "commit", "deliver", "slot_bind",
                "slot_release"},
    "derecho-leader": {"leader", "accept_one", "commit", "deliver",
                       "slot_bind", "slot_release"},
    "derecho-all": {"accept_one", "commit", "deliver", "slot_bind",
                    "slot_release"},
    "apus": {"leader", "accept", "commit", "deliver"},
    "libpaxos": {"leader", "accept_one", "commit", "deliver"},
    "zookeeper": {"leader", "accept", "commit", "deliver"},
    "etcd": {"leader", "accept", "commit"},
    "dare": {"leader", "accept", "commit", "deliver"},
    "mu": {"leader", "accept", "commit", "deliver"},
    "dolev": {"deliver"},
    "bracha": {"accept_one", "commit", "deliver"},
}


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_crashed_follower_is_silent_and_vocabulary_is_pinned(name):
    # A follower crashed through system.crash emits no event after the
    # crash instant, on every system; and each system keeps emitting
    # exactly its part of the normalized vocabulary.
    from repro.harness.factory import build_from_spec, settle
    from repro.monitors import (DEFAULT_MONITORS, Monitor, MonitorRegistry,
                                finish_monitors)
    from repro.sim.engine import ms
    from repro.workloads.closedloop import ClosedLoopClient

    seen = []

    class Recorder(Monitor):
        def on_mark(self, ev):
            seen.append(ev)

    spec = RunSpec(system=name, n=3, payload_bytes=64, window=8)
    engine = spec.make_engine()
    MonitorRegistry(engine, factories=[*DEFAULT_MONITORS, Recorder])
    system = build_from_spec(spec, engine)
    settle(system)
    ClosedLoopClient(system, window=8, message_size=64).start()
    engine.run(until=engine.now + ms(1))
    victim = next(i for i in system.node_ids if i != system.leader_id())
    system.crash(victim)
    crashed_at = engine.now
    engine.run(until=crashed_at + ms(3))
    assert [ev for ev in seen
            if ev.node == victim and ev.t > crashed_at] == []
    assert {ev.kind for ev in seen} == CRASH_RUN_KINDS[name]
    assert finish_monitors(engine) == []


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_first_commits_arrive_in_slot_order(name):
    # CommitQuorumAccept treats a commit at or below the highest slot
    # proven so far as a re-commit.  That is exact because every commit
    # emit site sits at in-order delivery, so the group-wide first
    # commits arrive in increasing slot order; this pins it on every
    # system across a leader crash and the fail-over that follows.
    from repro.harness.factory import build_from_spec, settle
    from repro.monitors import (DEFAULT_MONITORS, Monitor, MonitorRegistry,
                                finish_monitors)
    from repro.sim.engine import ms
    from repro.workloads.closedloop import ClosedLoopClient

    firsts: list = []
    seen: set = set()

    class FirstCommits(Monitor):
        KINDS = frozenset({"commit"})

        def on_mark(self, ev):
            if ev.slot not in seen:
                seen.add(ev.slot)
                firsts.append(ev.slot)

    spec = RunSpec(system=name, n=3, payload_bytes=64, window=8)
    engine = spec.make_engine()
    MonitorRegistry(engine, factories=[*DEFAULT_MONITORS, FirstCommits])
    system = build_from_spec(spec, engine)
    settle(system)
    client = ClosedLoopClient(system, window=8, message_size=64)
    client.start()

    def run_to(completed: int) -> None:
        stop = engine.now + ms(20)
        while client.completed < completed and engine.now < stop:
            engine.run(until=engine.now + ms(0.1))

    run_to(40)
    system.crash(system.leader_id())
    crashed_at = client.completed
    run_to(crashed_at + 40)
    assert firsts == sorted(firsts), name
    assert finish_monitors(engine) == []
    if "commit" in CRASH_RUN_KINDS[name]:
        assert len(firsts) >= crashed_at >= 40, name
