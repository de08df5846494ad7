"""Late messages for slots a replica has already committed or delivered.

Each replica drops a slot's quorum tally once the slot commits or
delivers, and answers a later message for that slot from a watermark it
already keeps.  A late message must therefore be a pure no-op: no trace
counter, substrate counter, CPU charge or delivery moves, and the tally
is not recreated.
"""

from __future__ import annotations

import pytest

from repro.harness import RunSpec
from repro.harness.factory import prepare
from repro.rdma.nic import Completion
from repro.sim import ms
from repro.workloads.closedloop import ClosedLoopClient


def _quiesced(name: str, n: int = 3):
    """A serving system after ~200 commits, with every in-flight message
    settled."""
    system = prepare(RunSpec(system=name, n=n, seed=3), record_deliveries=True)
    client = ClosedLoopClient(system, window=8, message_size=64)
    client.start()
    engine = system.engine
    while client.completed < 200:
        engine.run(until=engine.now + ms(0.2))
    client.stop()
    engine.run(until=engine.now + ms(2))
    return system


def _state(system):
    return (dict(system.engine.trace.counters), system.substrate_counters(),
            dict(system.deliveries.counts),
            [nd.cpu.busy_until for nd in system.nodes.values()])


def test_zab_ack_after_commit():
    system = _quiesced("zookeeper")
    leader = system.nodes[system.leader_id()]
    zxid = leader.log[leader.delivered_upto - 1][0]
    assert zxid <= leader.committed_zxid
    before = _state(system)
    for voter in system.node_ids:
        leader._dispatch(voter, ("ACK", zxid))
    assert _state(system) == before
    assert zxid not in leader.acks


def test_mu_completion_below_commit_index():
    system = _quiesced("mu")
    leader = system.nodes[system.leader_id()]
    idx = leader.commit_index - 1
    cq = system.fabric.nic(leader.node_id).cq
    before = _state(system)
    for p in system.node_ids:
        if p != leader.node_id:
            cq.push(Completion(p, ("mu", p, idx), 1, 0, system.engine.now))
    leader._drain_completions()
    assert _state(system) == before
    assert idx not in leader._acks


def test_libpaxos_accepted_for_delivered_iid():
    system = _quiesced("libpaxos")
    node = system.nodes[1]
    iid = node.next_deliver - 1
    ballot, payload, size = node.accepted[iid]
    before = _state(system)
    for src in system.node_ids:
        node._dispatch(src, ("ACCEPTED", ballot, iid, payload, size))
    assert _state(system) == before
    assert iid not in node.learn_votes and iid not in node.chosen


@pytest.mark.parametrize("kind", ["ECHO", "READY"])
@pytest.mark.parametrize("forged", [False, True])
def test_bracha_vote_for_delivered_slot(kind, forged):
    system = _quiesced("bracha", n=4)     # f = 1: a lone vote is no quorum
    node = system.nodes[1]
    s = node.next_deliver - 1
    value = ("forged", s) if forged else system.deliveries.sequences[1][s]
    before = _state(system)
    for src in system.node_ids:
        node._dispatch(src, (kind, s, value, 64))
    assert _state(system) == before
    assert s not in node._echoes and s not in node._readies


def test_dolev_copy_of_delivered_slot():
    system = _quiesced("dolev", n=4)      # f = 1: one path is not enough
    node = system.nodes[1]
    s = node.next_deliver - 1
    value = system.deliveries.sequences[1][s]
    before = _state(system)
    node._dispatch(system.sequencer, ("MSG", s, value, 64, ()))  # duplicate
    node._dispatch(2, ("MSG", s, value, 64, (2,)))     # late relayed copy
    assert _state(system) == before
    assert s not in node._paths and s not in node._buffer


def test_dolev_slot_trusted_through_relays_drops_its_paths():
    system = _quiesced("dolev", n=4)
    node = system.nodes[1]
    s = node.next_deliver
    for relayer in (2, 3):      # f + 1 disjoint relay paths, no direct copy
        node._dispatch(relayer, ("MSG", s, ("relayed", s), 64, ()))
    assert node.next_deliver == s + 1
    assert s not in node._paths
