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


def run_protocol(name, n=3, seed=7, messages=24):
    """The exact workload the goldens were captured under."""
    engine = Engine(seed=seed)
    system = build_from_spec(RunSpec(system=name, n=n), engine)
    settle(system)
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


@pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
def test_trace_matches_pre_refactor_golden(name):
    assert run_protocol(name) == GOLDEN_FINGERPRINTS[name]
