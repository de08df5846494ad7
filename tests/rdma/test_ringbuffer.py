"""Unit tests for the RDMA ring buffer (§3.2)."""

import pytest

from repro.rdma import (RdmaFabric, RdmaParams, RingBuffer,
                        SendQueueFullError, SlotReleasePolicy)
from repro.sim import Engine


def _ring(n=3, capacity=8, writes_per_message=1, seed=1):
    e = Engine(seed=seed)
    fab = RdmaFabric(e, list(range(n)))
    ring = RingBuffer(fab, 0, list(range(n)), capacity=capacity,
                      writes_per_message=writes_per_message)
    return e, fab, ring


def test_broadcast_reaches_all_receivers():
    e, fab, ring = _ring()
    ring.try_send("hello", 10)
    e.run()
    for r in range(3):
        assert ring.receiver(r).poll() == [(0, "hello")]


def test_self_delivery_is_local_and_polled():
    e, fab, ring = _ring()
    ring.try_send("x", 10)
    # Before any engine time passes, the sender's own mirror has it...
    assert ring.receiver(0).poll() == [(0, "x")]
    # ...but remote mirrors need wire time.
    assert ring.receiver(1).poll() == []
    e.run()
    assert ring.receiver(1).poll() == [(0, "x")]


def test_messages_arrive_in_order_and_batch():
    e, fab, ring = _ring(capacity=64)
    for i in range(10):
        ring.try_send(i, 10)
    e.run()
    batch = ring.receiver(2).poll()
    assert [seq for seq, _ in batch] == list(range(10))
    assert [p for _, p in batch] == list(range(10))


def test_poll_max_batch_limits_drain():
    e, fab, ring = _ring(capacity=64)
    for i in range(10):
        ring.try_send(i, 10)
    e.run()
    rr = ring.receiver(1)
    first = rr.poll(max_batch=3)
    assert len(first) == 3
    assert rr.backlog == 7
    assert len(rr.poll()) == 7


def test_ring_fills_without_release():
    e, fab, ring = _ring(capacity=4)
    for i in range(4):
        assert ring.try_send(i, 10) is not None
    assert ring.try_send(99, 10) is None
    assert ring.stalls == 1
    assert ring.free_slots() == 0


def test_release_frees_slots_at_min_across_receivers():
    e, fab, ring = _ring(capacity=4)
    for i in range(4):
        ring.try_send(i, 10)
    e.run()
    for r in range(3):
        ring.receiver(r).poll()
    # Two receivers release, one lags: still full.
    ring.mark_released(0, 4)
    ring.mark_released(1, 4)
    assert ring.free_slots() == 0
    ring.mark_released(2, 2)
    assert ring.free_slots() == 2
    assert ring.try_send("ok", 10) is not None


def test_release_never_exceeds_sent():
    e, fab, ring = _ring(capacity=4)
    ring.try_send("a", 10)
    ring.mark_released(1, 100)
    assert ring.free_slots() <= ring.capacity


def test_release_is_monotone():
    e, fab, ring = _ring(capacity=8)
    for i in range(4):
        ring.try_send(i, 10)
    ring.mark_released(1, 3)
    ring.mark_released(1, 1)  # stale info must not regress
    assert ring._released[1] == 3


def test_drop_receiver_unblocks_slow_node():
    e, fab, ring = _ring(capacity=2)
    ring.try_send("a", 10)
    ring.try_send("b", 10)
    ring.mark_released(0, 2)
    ring.mark_released(1, 2)
    assert ring.try_send("c", 10) is None  # receiver 2 wedges the ring
    ring.drop_receiver(2)
    assert ring.try_send("c", 10) is not None


def test_unicast_targets_only_named_receiver():
    e, fab, ring = _ring()
    ring.try_send("just-for-1", 10, targets=[1])
    e.run()
    assert ring.receiver(1).poll() == [(0, "just-for-1")]
    assert ring.receiver(2).poll() == []


def test_two_write_mode_needs_counter_to_become_visible():
    e, fab, ring = _ring(writes_per_message=2)
    ring.try_send("msg", 10)
    e.run()
    assert ring.receiver(1).poll() == [(0, "msg")]


def test_two_write_mode_doubles_wire_messages():
    e1, fab1, ring1 = _ring(writes_per_message=1)
    e2, fab2, ring2 = _ring(writes_per_message=2)
    for ring, e in ((ring1, e1), (ring2, e2)):
        for i in range(10):
            ring.try_send(i, 10)
        e.run()
    one = fab1.nic(0).tx_msgs
    two = fab2.nic(0).tx_msgs
    assert two == 2 * one


def test_two_write_mode_doubles_small_message_bandwidth_cost():
    # The §4.1 argument: with an 80-byte wire minimum, data+counter costs
    # twice the bytes of a coupled write for 10-byte payloads.
    e1, fab1, ring1 = _ring(writes_per_message=1)
    e2, fab2, ring2 = _ring(writes_per_message=2)
    for ring, e in ((ring1, e1), (ring2, e2)):
        for i in range(100):
            ring.try_send(i, 10)
        e.run()
    assert fab2.nic(0).tx_bytes == 2 * fab1.nic(0).tx_bytes


def test_selective_signaling_interval():
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1])
    ring = RingBuffer(fab, 0, [0, 1], capacity=4096, signal_interval=10)
    for i in range(100):
        ring.try_send(i, 10)
    e.run()
    assert fab.nic(0).cq.total_seen == 10  # one completion per 10 writes


def test_policy_labels():
    e, fab, _ = _ring()
    accept = RingBuffer(fab, 1, [0, 1], policy=SlotReleasePolicy.ON_ACCEPT)
    commit = RingBuffer(fab, 2, [0, 2], policy=SlotReleasePolicy.ON_COMMIT)
    assert accept.policy is SlotReleasePolicy.ON_ACCEPT
    assert commit.policy is SlotReleasePolicy.ON_COMMIT


def test_send_queue_full_mid_broadcast_keeps_the_writes_already_posted():
    """A broadcast that raises at its second remote receiver has still
    posted the first one's write, which is delivered."""
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1, 2], RdmaParams(max_send_queue=4))
    ring = RingBuffer(fab, 0, [0, 1, 2], capacity=8)
    scratch = fab.register(2, "scratch", 4096, on_write=lambda k, v, s: None)
    rkey = scratch.grant()
    for i in range(4):      # fill QP 0->2 with unsignaled writes
        fab.write(0, 2, scratch, rkey, i, None, 8)
    with pytest.raises(SendQueueFullError):
        ring.try_send("m", 10)
    e.run()
    assert ring.receiver(0).poll() == [(0, "m")]
    assert ring.receiver(1).poll() == [(0, "m")]
    assert ring.receiver(2).poll() == []
