"""Tests for the Zab/ZooKeeper baseline."""

from repro.protocols.zab import ZabCluster
from repro.sim import Engine, ms, us

from tests.protocols.conftest import drive


def _cluster(n=3, seed=1):
    e = Engine(seed=seed)
    c = ZabCluster(e, n)
    c.start()
    e.run(until=ms(5))
    assert c.leader_id() is not None
    return e, c


def test_election_then_ordered_delivery():
    e, c = _cluster()
    lats = drive(c, e, 30, gap_us=100)
    e.run(until=ms(30))
    assert len(lats) == 30
    for nid in range(3):
        assert [p for p in c.deliveries.sequences[nid]] == [("m", i) for i in range(30)]


def test_latency_band_hundreds_of_microseconds():
    """TCP + fsync + request pipeline put ZooKeeper two orders of
    magnitude above the RDMA systems (Fig. 8)."""
    e, c = _cluster()
    lats = drive(c, e, 20, gap_us=200)
    e.run(until=ms(30))
    mean = sum(lats) / len(lats)
    assert us(80) < mean < us(2000), mean


def test_followers_ack_every_proposal():
    """Per-message ACK traffic — the contrast with Acuerdo's single
    overwritten SST row."""
    e, c = _cluster()
    ldr = c.leader_id()
    follower = next(i for i in range(3) if i != ldr)
    before = c.nodes[follower].ep.sent
    drive(c, e, 20, gap_us=100)
    e.run(until=ms(30))
    acks = c.nodes[follower].ep.sent - before
    assert acks >= 20  # at least one TCP message back per proposal


def test_failover_preserves_committed_messages():
    e, c = _cluster(seed=3)
    lats = drive(c, e, 20, gap_us=100)
    e.run(until=ms(20))
    assert len(lats) == 20
    old = c.leader_id()
    c.crash(old)
    e.run(until=ms(60))
    new = c.leader_id()
    assert new is not None and new != old
    post = drive(c, e, 10, gap_us=100, start=100, tag="post")
    e.run(until=ms(90))
    assert len(post) == 10
    c.deliveries.check_total_order()
    for nid in range(3):
        if nid == old:
            continue
        assert c.deliveries.sequences[nid][:20] == [("m", i) for i in range(20)]


def test_election_includes_sync_phase():
    e, c = _cluster(seed=4)
    assert c.engine.trace.get("zab.sync_sent") >= 1
    assert c.engine.trace.get("zab.broadcast_open") >= 1


def test_new_leader_has_highest_zxid():
    """FLE picks by (zxid, id); after the verify round the winner must
    not be behind any live peer."""
    e, c = _cluster(seed=5)
    drive(c, e, 15, gap_us=100)
    e.run(until=ms(20))
    old = c.leader_id()
    c.crash(old)
    e.run(until=ms(60))
    new = c.leader_id()
    assert new is not None
    new_zxid = c.nodes[new].last_zxid()
    for i in range(3):
        if i in (old, new):
            continue
        assert new_zxid >= c.nodes[i].committed_zxid


def test_group_commit_batches_fsyncs():
    e, c = _cluster(seed=6)
    ldr = c.leader_id()
    for i in range(50):
        c.submit(("burst", i), 10)
    e.run(until=ms(40))
    assert c.deliveries.delivered_count(ldr) >= 50
    # 50 appends share far fewer than 50 fsyncs.
    assert c.nodes[ldr].disk.syncs < 30


def test_no_quorum_no_leader():
    e, c = _cluster(seed=7)
    survivors = [i for i in range(3)]
    c.crash(survivors[0])
    c.crash(survivors[1])
    e.run(until=ms(80))
    assert c.leader_id() is None


def test_resync_of_a_looking_peer_charges_the_verify_diff():
    """A follower that falls back to LOOKING is re-synced with the same
    SYNC the post-election verify round sends: charged as the coarse
    DIFF from the last delivered entry on, not as the whole log."""
    e = Engine(seed=7)
    c = ZabCluster(e, 3)
    c.start()
    e.run(until=ms(5))
    ldr = c.leader_id()
    drive(c, e, 40, gap_us=100, size=100)
    e.run(until=ms(30))
    assert [c.deliveries.delivered_count(i) for i in range(3)] == [40] * 3
    syncs = []
    send = c.net.send

    def spy(src, dst, msg, size):
        if msg[0] == "SYNC":
            syncs.append(size)
        send(src, dst, msg, size)

    c.net.send = spy
    follower = next(i for i in range(3) if i != ldr)
    c.nodes[follower]._enter_election()
    e.run(until=ms(40))
    assert c.leader_id() == ldr
    # Only the last delivered entry (100 B) is in the DIFF, plus framing.
    assert syncs and syncs == [100 + c.cfg.msg_overhead_bytes] * len(syncs)
