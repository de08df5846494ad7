"""Integration tests for the fully simulated RDMA client path (§4.3)."""

from repro.core import AcuerdoCluster
from repro.core.clientport import AcuerdoClientPort
from repro.sim import Engine, ProcessConfig, ms, us


def _setup(n=3, seed=1):
    e = Engine(seed=seed)
    c = AcuerdoCluster(e, n)
    c.preseed_leader(0)
    port = AcuerdoClientPort(c)
    c.start()
    port.start()
    return e, c, port


def test_request_reply_roundtrip():
    e, c, port = _setup()
    replies = []
    port.request({"op": "put"}, 10, on_reply=replies.append)
    e.run(until=ms(1))
    assert replies == [0]
    assert c.deliveries.delivered_count(0) == 1


def test_request_doorbell_scales_with_speed_factor():
    """The doorbell is a CPU cost like any other: a client built with a
    slow ProcessConfig pays it times the speed factor."""
    e = Engine(seed=1)
    c = AcuerdoCluster(e, 3)
    c.preseed_leader(0)
    port = AcuerdoClientPort(c, ProcessConfig(speed_factor=3.0))
    port.request("slow", 10)
    assert port.cpu.busy_until == 3 * c.fabric.params.doorbell_cpu_ns


def test_client_observed_latency_close_to_delay_model():
    """The fully simulated path should agree with the workloads' fixed
    client_hop_ns model to within poll jitter."""
    e, c, port = _setup()
    lats = []

    def fire(i=0):
        if i >= 50:
            return
        t0 = e.now
        port.request(("m", i), 10, on_reply=lambda r: (lats.append(e.now - t0),
                                                       fire(i + 1)))

    fire()
    e.run(until=ms(5))
    assert len(lats) == 50
    mean = sum(lats) / len(lats)
    modeled = 2 * c.client_hop_ns + us(4)  # hops + commit path
    assert 0.5 * modeled < mean < 3 * modeled, (mean, modeled)


def test_pipelined_requests_all_reply():
    e, c, port = _setup()
    replies = []
    for i in range(64):
        port.request(("b", i), 10, on_reply=replies.append)
    e.run(until=ms(3))
    assert sorted(replies) == list(range(64))
    c.deliveries.check_total_order()


def test_requests_to_non_leader_are_dropped_and_resendable():
    e, c, port = _setup()
    replies = []
    # Force the request at a follower's mailbox.
    port._req_boxes[1].send(port.node_id, (99, "lost", 10), 26)
    e.run(until=ms(1))
    assert replies == []
    assert e.trace.get("acuerdo.client_req_dropped") == 1
    # The client re-sends to the real leader and succeeds.
    port.request("retry", 10, on_reply=replies.append)
    e.run(until=ms(2))
    assert len(replies) == 1


def test_two_clients_interleave():
    e, c, _ = _setup()
    a = AcuerdoClientPort(c)
    b = AcuerdoClientPort(c)
    a.start()
    b.start()
    got = {"a": 0, "b": 0}
    for i in range(10):
        a.request(("a", i), 10, on_reply=lambda r: got.__setitem__("a", got["a"] + 1))
        b.request(("b", i), 10, on_reply=lambda r: got.__setitem__("b", got["b"] + 1))
    e.run(until=ms(3))
    assert got == {"a": 10, "b": 10}
    c.deliveries.check_total_order()
