"""Unit tests for reliable-connection queue pairs and the NIC cost model."""

import pytest

from repro.rdma import RdmaFabric, RdmaParams, SendQueueFullError
from repro.sim import Engine, us


def _pair(params=None, seed=1):
    e = Engine(seed=seed)
    fab = RdmaFabric(e, [0, 1], params)
    store = {}
    region = fab.register(1, "buf", 4096, on_write=lambda k, v, s: store.__setitem__(k, v))
    return e, fab, region, store


def test_write_lands_in_remote_region():
    e, fab, region, store = _pair()
    fab.write(0, 1, region, region.grant(), "slot0", b"hello", 10)
    e.run()
    assert store["slot0"] == b"hello"
    assert region.writes_received == 1


def test_write_latency_matches_cost_model():
    p = RdmaParams()
    e, fab, region, store = _pair(p)
    times = {}
    fab.write(0, 1, region, region.grant(), "k", 1, 10)
    e.run()
    expected = p.nic_tx_ns + p.tx_serialization_ns(10) + p.propagation_ns + p.nic_rx_ns
    assert e.now == expected
    # Small writes land in ~1us, the RDMA anchor from the paper.
    assert us(0.5) < expected < us(2)


def test_fifo_delivery_order():
    e, fab, region, _ = _pair()
    seen = []
    reg2 = fab.register(1, "fifo", 4096, on_write=lambda k, v, s: seen.append(k))
    for i in range(20):
        fab.write(0, 1, reg2, reg2.grant(), i, None, 10)
    e.run()
    assert seen == list(range(20))


def test_fifo_preserved_under_loss():
    p = RdmaParams(loss_prob=0.3)
    e = Engine(seed=9)
    fab = RdmaFabric(e, [0, 1], p)
    seen = []
    reg = fab.register(1, "lossy", 4096, on_write=lambda k, v, s: seen.append(k))
    for i in range(200):
        fab.write(0, 1, reg, reg.grant(), i, None, 10)
    e.run()
    assert seen == list(range(200))  # reliable connection: lossless, ordered
    assert fab.qp(0, 1).retransmits > 0


def test_loss_adds_retransmit_delay():
    clean = RdmaParams(loss_prob=0.0)
    lossy = RdmaParams(loss_prob=1.0)

    def run(p):
        e = Engine(seed=2)
        fab = RdmaFabric(e, [0, 1], p)
        reg = fab.register(1, "r", 64, on_write=lambda k, v, s: None)
        fab.write(0, 1, reg, reg.grant(), 0, None, 10)
        e.run()
        return e.now

    assert run(lossy) - run(clean) == lossy.retransmit_timeout_ns


def test_link_serialization_contends_across_qps():
    p = RdmaParams()
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1, 2], p)
    done = []
    r1 = fab.register(1, "a", 1 << 20, on_write=lambda k, v, s: done.append(("n1", e.now)))
    r2 = fab.register(2, "b", 1 << 20, on_write=lambda k, v, s: done.append(("n2", e.now)))
    big = 100_000
    fab.write(0, 1, r1, r1.grant(), 0, None, big)
    fab.write(0, 2, r2, r2.grant(), 0, None, big)
    e.run()
    t1 = dict(done)["n1"]
    t2 = dict(done)["n2"]
    # Second write serialises behind the first on node 0's single link.
    assert abs(t2 - t1) >= p.tx_serialization_ns(big) * 0.9


def test_signaled_write_generates_completion_covering_unsignaled():
    e, fab, region, _ = _pair()
    rkey = region.grant()
    for i in range(9):
        fab.write(0, 1, region, rkey, i, None, 10, signaled=False)
    fab.write(0, 1, region, rkey, 9, None, 10, signaled=True, wr_id="batch")
    e.run()
    cq = fab.nic(0).cq
    entries = cq.drain()
    assert len(entries) == 1
    assert entries[0].wr_id == "batch"
    assert entries[0].covers == 10
    assert fab.qp(0, 1).outstanding == 0


def test_unsignaled_writes_accumulate_until_send_queue_full():
    p = RdmaParams(max_send_queue=16)
    e, fab, region, _ = _pair(p)
    rkey = region.grant()
    for i in range(16):
        fab.write(0, 1, region, rkey, i, None, 10)
    with pytest.raises(SendQueueFullError):
        fab.write(0, 1, region, rkey, 16, None, 10)


def test_selective_signaling_keeps_queue_bounded():
    p = RdmaParams(max_send_queue=64)
    e, fab, region, _ = _pair(p)
    rkey = region.grant()
    for i in range(1000):
        fab.write(0, 1, region, rkey, i, None, 10, signaled=(i % 16 == 15))
        if i % 40 == 39:
            # Let completions drain periodically, as a polling sender would.
            e.run(until=e.now + us(50))
    e.run()
    # Only the unsignaled tail after the last signaled write remains;
    # the queue never grew anywhere near the 64-entry bound.
    assert fab.qp(0, 1).outstanding < 16


def test_crashed_destination_swallows_writes():
    e, fab, region, store = _pair()
    fab.crash_node(1)
    fab.write(0, 1, region, region.grant(), "k", 1, 10)
    e.run()
    assert store == {}


def test_write_to_crashed_host_completes_nothing():
    """A signaled write in flight when its destination powers off is
    never placed, so no completion reports it (the RC retry budget dies
    instead) — while the send queue still retires the WQE."""
    e, fab, region, store = _pair()
    fab.write(0, 1, region, region.grant(), "k", 1, 10, signaled=True, wr_id="w")
    fab.crash_node(1)
    e.run()
    assert store == {}
    assert len(fab.nic(0).cq) == 0
    assert fab.qp(0, 1).outstanding == 0


def test_write_into_powered_off_host_schedules_no_landing():
    """No host powers back on, so a write posted into a dead one keeps
    its wire and queue accounting but puts no landing on the heap; a
    signaled one still retires its WQE through the completion event."""
    e, fab, region, store = _pair()
    fab.crash_node(1)
    fab.write(0, 1, region, region.grant(), "a", 1, 10)
    assert e.heap_pushes == 0
    fab.write(0, 1, region, region.grant(), "b", 2, 10, signaled=True, wr_id="w")
    assert e.heap_pushes == 1
    qp, nic = fab.qp(0, 1), fab.nic(0)
    assert (qp.posted, qp.outstanding, nic.tx_msgs) == (2, 2, 2)
    floor = qp._last_delivery_at
    assert floor >= nic.tx_free_at
    e.run()
    assert e.events_executed == 1
    assert store == {} and qp.delivered == 0
    assert qp.outstanding == 0 and len(nic.cq) == 0


def test_crashed_source_sends_nothing():
    e, fab, region, store = _pair()
    fab.crash_node(0)
    fab.write(0, 1, region, region.grant(), "k", 1, 10)
    e.run()
    assert store == {}
    assert fab.qp(0, 1).posted == 0


def test_min_wire_message_floors_cost():
    p = RdmaParams()
    assert p.wire_bytes(1) == p.min_wire_bytes
    assert p.wire_bytes(10) == p.min_wire_bytes
    assert p.wire_bytes(1000) == 1000 + p.header_bytes
    assert p.tx_serialization_ns(1) == p.tx_serialization_ns(10)


def test_bulk_lane_does_not_delay_control_traffic():
    """QoS lanes: a large transfer on the bulk QP leaves small control
    writes' latency untouched."""
    p = RdmaParams()
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1])
    times = {}
    reg = fab.register(1, "r", 1 << 22,
                       on_write=lambda k, v, s: times.__setitem__(k, e.now))
    rkey = reg.grant()
    fab.write(0, 1, reg, rkey, "bulk", None, 1 << 20, lane="bulk")
    fab.write(0, 1, reg, rkey, "ctl", None, 10)
    e.run()
    one_way = p.nic_tx_ns + p.tx_serialization_ns(10) + p.propagation_ns + p.nic_rx_ns
    assert times["ctl"] <= one_way + 10  # not queued behind the megabyte
    assert times["bulk"] > times["ctl"]


def test_bulk_lane_preserves_order_within_lane():
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1])
    seen = []
    reg = fab.register(1, "r", 1 << 22, on_write=lambda k, v, s: seen.append(k))
    rkey = reg.grant()
    for i in range(5):
        fab.write(0, 1, reg, rkey, i, None, 1 << 17, lane="bulk")
    e.run()
    assert seen == [0, 1, 2, 3, 4]
