"""Golden-trace determinism regression across the substrate refactor.

The fingerprints below were captured from the pre-substrate tree (the
seed commit) under a fixed workload: seed 7, three replicas, 24 client
messages of 64 bytes submitted every 20 µs, 30 ms horizon.  The
substrate layer is pure refactoring — same RNG stream names, same cost
arithmetic, same event ordering — so every protocol must still produce
these exact traces.  A mismatch means the transport rework changed
simulated behaviour, not just code structure.

Each entry is (tracer fingerprint, per-node delivery counts, final
leader, substrate counters).  The substrate counters pin what a
protocol sends, so a change to its traffic cannot pass unseen behind
unchanged counter names.

``CRASH_GOLDENS`` pins the failover paths under the same workload with
the settled leader (the fixed sequencer, for Dolev and Bracha) crashed
200 µs into it: Zab's FLE and SYNC, Raft's re-election, libpaxos's
takeover, the remote-log hand-offs and a sequencer crash.
"""

from __future__ import annotations

import pytest

from repro.harness.factory import EXTENSION_SYSTEMS, SYSTEMS, build_from_spec, settle
from repro.harness.runspec import RunSpec
from repro.sim.engine import Engine, ms, us

GOLDEN_FINGERPRINTS = {
    'acuerdo':
        (((('acuerdo.accept', 72), ('acuerdo.broadcast', 24), ('acuerdo.commit', 72), ('acuerdo.gc_trimmed', 69)), (), 0),
         ((0, 24), (1, 24), (2, 24)), 0,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 84802, 'substrate.rdma.tx_bytes': 6785440, 'substrate.rdma.tx_msgs': 84806}),
    'apus':
        (((('apus.batch_commit', 17), ('apus.batch_send', 17)), (), 0),
         ((0, 24), (1, 24), (2, 24)), 0,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 238010, 'substrate.rdma.tx_bytes': 19043944, 'substrate.rdma.tx_msgs': 238020}),
    'bracha':
        (((('bracha.deliver', 72), ('bracha.send', 24)), (), 0),
         ((0, 24), (1, 24), (2, 24)), 0,
         {'substrate.tcp.partition_drop': 0, 'substrate.tcp.retransmits': 0, 'substrate.tcp.rx_msgs': 336, 'substrate.tcp.tx_bytes': 57120, 'substrate.tcp.tx_msgs': 336}),
    'dare':
        (((('dare.elected', 1),), (), 0),
         ((0, 24), (1, 24), (2, 24)), 0,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 14634, 'substrate.rdma.tx_bytes': 1171840, 'substrate.rdma.tx_msgs': 14636}),
    'derecho-all':
        (((('derecho.broadcast', 24), ('derecho.deliver', 216), ('derecho.null_send', 48)), (), 0),
         ((0, 24), (1, 24), (2, 24)), 0,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 18690, 'substrate.rdma.tx_bytes': 1716984, 'substrate.rdma.tx_msgs': 18690}),
    'derecho-leader':
        (((('derecho.broadcast', 24), ('derecho.deliver', 72)), (), 0),
         ((0, 24), (1, 24), (2, 24)), 0,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 18152, 'substrate.rdma.tx_bytes': 1669792, 'substrate.rdma.tx_msgs': 18152}),
    'dolev':
        (((('dolev.deliver', 72), ('dolev.relay', 48), ('dolev.send', 24)), (), 0),
         ((0, 24), (1, 24), (2, 24)), 0,
         {'substrate.tcp.partition_drop': 0, 'substrate.tcp.retransmits': 0, 'substrate.tcp.rx_msgs': 96, 'substrate.tcp.tx_bytes': 16512, 'substrate.tcp.tx_msgs': 96}),
    'etcd':
        (((('raft.apply', 9), ('raft.elected', 2), ('raft.elections_started', 2)), (), 0),
         ((0, 1), (1, 1), (2, 1)), 2,
         {'substrate.tcp.partition_drop': 0, 'substrate.tcp.retransmits': 0, 'substrate.tcp.rx_msgs': 796, 'substrate.tcp.tx_bytes': 117208, 'substrate.tcp.tx_msgs': 796}),
    'libpaxos':
        (((('paxos.deliver', 72), ('paxos.propose', 24)), (), 0),
         ((0, 24), (1, 24), (2, 24)), 0,
         {'substrate.tcp.partition_drop': 0, 'substrate.tcp.retransmits': 0, 'substrate.tcp.rx_msgs': 588, 'substrate.tcp.tx_bytes': 72024, 'substrate.tcp.tx_msgs': 588}),
    'mu':
        (((), (), 0),
         ((0, 24), (1, 24), (2, 24)), 0,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 14588, 'substrate.rdma.tx_bytes': 1168000, 'substrate.rdma.tx_msgs': 14588}),
    'zookeeper':
        (((('zab.broadcast_open', 1), ('zab.deliver', 72), ('zab.elected', 1), ('zab.propose', 24), ('zab.sync', 2), ('zab.sync_sent', 1)), (), 0),
         ((0, 24), (1, 24), (2, 24)), 2,
         {'substrate.tcp.partition_drop': 0, 'substrate.tcp.retransmits': 0, 'substrate.tcp.rx_msgs': 1369, 'substrate.tcp.tx_bytes': 170810, 'substrate.tcp.tx_msgs': 1369}),
}

CRASH_GOLDENS = {
    'acuerdo':
        (((('acuerdo.accept', 60), ('acuerdo.broadcast', 25), ('acuerdo.commit', 60), ('acuerdo.diff_accept', 2), ('acuerdo.elections_started', 2), ('acuerdo.elections_won', 1), ('acuerdo.gc_trimmed', 18), ('acuerdo.receiver_evicted', 1), ('acuerdo.vote_join', 1), ('acuerdo.vote_self', 2), ('process.crashes', 1)), (('acuerdo.election_duration_ns', 1, 3007),), 0),
         ((0, 10), (1, 24), (2, 24)), 2,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 28693, 'substrate.rdma.tx_bytes': 4542808, 'substrate.rdma.tx_msgs': 56772}),
    'apus':
        (((('apus.batch_commit', 16), ('apus.batch_send', 17), ('apus.failover', 1), ('process.crashes', 1)), (), 0),
         ((0, 8), (1, 24), (2, 24)), 1,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 118865, 'substrate.rdma.tx_bytes': 18939464, 'substrate.rdma.tx_msgs': 236714}),
    'bracha':
        (((('bracha.deliver', 26), ('bracha.send', 10), ('process.crashes', 1)), (), 0),
         ((0, 6), (1, 10), (2, 10)), None,
         {'substrate.tcp.partition_drop': 0, 'substrate.tcp.retransmits': 0, 'substrate.tcp.rx_msgs': 116, 'substrate.tcp.tx_bytes': 20400, 'substrate.tcp.tx_msgs': 120}),
    'dare':
        (((('dare.elected', 2), ('dare.election_rounds', 1), ('process.crashes', 1)), (), 0),
         ((0, 10), (1, 24), (2, 24)), 2,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 7234, 'substrate.rdma.tx_bytes': 1143600, 'substrate.rdma.tx_msgs': 14284}),
    'derecho-all':
        (((('derecho.broadcast', 24), ('derecho.deliver', 90), ('derecho.null_send', 34), ('derecho.view_install', 2), ('derecho.wedge', 2), ('process.crashes', 1)), (), 0),
         ((0, 10), (1, 10), (2, 10)), 1,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 6517, 'substrate.rdma.tx_bytes': 1149832, 'substrate.rdma.tx_msgs': 12518}),
    'derecho-leader':
        (((('derecho.broadcast', 24), ('derecho.deliver', 58), ('derecho.view_install', 2), ('derecho.wedge', 2), ('process.crashes', 1)), (), 0),
         ((0, 10), (1, 24), (2, 24)), 1,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 6248, 'substrate.rdma.tx_bytes': 1121712, 'substrate.rdma.tx_msgs': 12194}),
    'dolev':
        (((('dolev.deliver', 30), ('dolev.relay', 20), ('dolev.send', 10), ('process.crashes', 1)), (), 0),
         ((0, 10), (1, 10), (2, 10)), None,
         {'substrate.tcp.partition_drop': 0, 'substrate.tcp.retransmits': 0, 'substrate.tcp.rx_msgs': 40, 'substrate.tcp.tx_bytes': 6880, 'substrate.tcp.tx_msgs': 40}),
    'etcd':
        (((('process.crashes', 1), ('raft.apply', 38), ('raft.elected', 4), ('raft.elections_started', 6)), (), 0),
         ((0, 15), (2, 15)), 2,
         {'substrate.tcp.partition_drop': 0, 'substrate.tcp.retransmits': 0, 'substrate.tcp.rx_msgs': 394, 'substrate.tcp.tx_bytes': 62669, 'substrate.tcp.tx_msgs': 405}),
    'libpaxos':
        (((('paxos.deliver', 55), ('paxos.prepare', 1), ('paxos.propose', 24), ('paxos.takeover_done', 1), ('process.crashes', 1)), (), 0),
         ((0, 7), (1, 24), (2, 24)), 1,
         {'substrate.tcp.partition_drop': 0, 'substrate.tcp.retransmits': 0, 'substrate.tcp.rx_msgs': 313, 'substrate.tcp.tx_bytes': 67748, 'substrate.tcp.tx_msgs': 554}),
    'mu':
        (((('mu.failover_done', 1), ('mu.failover_started', 1), ('process.crashes', 1)), (), 0),
         ((0, 10), (1, 24), (2, 24)), 1,
         {'substrate.rdma.partition_drop': 0, 'substrate.rdma.retransmits': 0, 'substrate.rdma.rx_msgs': 6722, 'substrate.rdma.tx_bytes': 1065800, 'substrate.rdma.tx_msgs': 13314}),
    'zookeeper':
        (((('process.crashes', 1), ('zab.broadcast_open', 2), ('zab.deliver', 42), ('zab.elected', 2), ('zab.elections_started', 2), ('zab.propose', 21), ('zab.sync', 3), ('zab.sync_sent', 2)), (), 0),
         ((0, 21), (1, 21)), 1,
         {'substrate.tcp.partition_drop': 0, 'substrate.tcp.retransmits': 0, 'substrate.tcp.rx_msgs': 591, 'substrate.tcp.tx_bytes': 76554, 'substrate.tcp.tx_msgs': 605}),
}


def run_protocol(name, n=3, seed=7, messages=24, crash_leader_at_us=None):
    """The exact workload the goldens were captured under; with
    ``crash_leader_at_us``, the settled leader crashes that far in."""
    engine = Engine(seed=seed)
    system = build_from_spec(RunSpec(system=name, n=n), engine)
    settle(system)
    if crash_leader_at_us is not None:
        engine.schedule(us(crash_leader_at_us), system.crash, system.leader_id())
    state = {"submitted": 0}

    def pump():
        if state["submitted"] < messages:
            if system.submit(("m", state["submitted"]), 64):
                state["submitted"] += 1
            engine.schedule(us(20), pump)

    engine.schedule(0, pump)
    engine.run(until=engine.now + ms(30))
    delivered = tuple(sorted(system.deliveries.counts.items()))
    return (engine.trace.fingerprint(), delivered, system.leader_id(),
            system.substrate_counters())


def test_goldens_cover_every_system():
    assert set(GOLDEN_FINGERPRINTS) == set(SYSTEMS) | set(EXTENSION_SYSTEMS)
    assert set(CRASH_GOLDENS) == set(GOLDEN_FINGERPRINTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
def test_trace_matches_pre_refactor_golden(name):
    assert run_protocol(name) == GOLDEN_FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(CRASH_GOLDENS))
def test_leader_crash_matches_golden(name):
    assert run_protocol(name, crash_leader_at_us=200) == CRASH_GOLDENS[name]
