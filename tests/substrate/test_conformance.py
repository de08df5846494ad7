"""Cross-substrate conformance: every backend honours the same contract.

Each test runs against BOTH the RDMA and TCP backends through the
uniform :mod:`repro.substrate` surface only — attach/send/drain,
``set_partition``/``heal_partition``, the ``CostModel`` accessors and
the ``substrate.<backend>.*`` counter namespace.  A future backend that
passes this suite can host any protocol in the repo without protocol
changes; a backend-specific behaviour that matters (e.g. who pays
receive CPU) is asserted through the cost model, not hard-coded.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, ms
from repro.sim.process import Process
from repro.substrate import RdmaParams, TcpParams, build_substrate

BACKEND_PARAMS = {
    "rdma": RdmaParams,
    "tcp": TcpParams,
}

CANONICAL_COUNTERS = ("tx_bytes", "tx_msgs", "rx_msgs", "retransmits",
                      "partition_drop")


def make_cluster(backend, engine, n=3, params=None):
    """A substrate with ``n`` attached (non-polling) processes."""
    sub = build_substrate(backend, engine, node_ids=range(n), params=params)
    procs = [Process(engine, i, name=f"{backend}{i}") for i in range(n)]
    eps = [sub.attach(p) for p in procs]
    return sub, procs, eps


@pytest.fixture(params=sorted(BACKEND_PARAMS))
def backend(request):
    return request.param


# ---------------------------------------------------------------- ordering

def test_fifo_order(backend):
    engine = Engine(seed=3)
    sub, _procs, eps = make_cluster(backend, engine)
    for i in range(50):
        sub.send(0, 1, ("msg", i), 64)
    engine.run(until=ms(50))
    got = eps[1].drain()
    assert got == [(0, ("msg", i)) for i in range(50)]


def test_fifo_order_under_loss(backend):
    # Loss appears as delay (go-back-N / RTO) and must never reorder the
    # stream — the guarantee Zab and the ring buffers both lean on.
    engine = Engine(seed=4)
    params = BACKEND_PARAMS[backend](loss_prob=0.4)
    sub, _procs, eps = make_cluster(backend, engine, params=params)
    for i in range(50):
        sub.send(0, 1, ("msg", i), 64)
    engine.run(until=ms(200))
    got = eps[1].drain()
    assert got == [(0, ("msg", i)) for i in range(50)]


# ------------------------------------------------------------ loss-as-delay

def test_loss_is_delay_not_drop(backend):
    def first_arrival(loss_prob):
        engine = Engine(seed=5)
        params = BACKEND_PARAMS[backend](loss_prob=loss_prob)
        sub, _procs, eps = make_cluster(backend, engine, params=params)
        for i in range(10):
            sub.send(0, 1, i, 64)
        while not eps[1].inbox and engine.live_pending:
            engine.step()
        arrival = engine.now
        engine.run(until=ms(500))
        return arrival, len(eps[1].drain())

    clean_arrival, clean_count = first_arrival(0.0)
    lossy_arrival, lossy_count = first_arrival(1.0)
    assert clean_count == lossy_count == 10      # nothing is ever dropped
    delay = BACKEND_PARAMS[backend]().loss_delay_ns
    assert lossy_arrival >= clean_arrival + delay


# --------------------------------------------------------------- partitions

def test_partition_drops_and_heals(backend):
    engine = Engine(seed=6)
    sub, _procs, eps = make_cluster(backend, engine)
    sub.set_partition([0], [1, 2])
    sub.send(0, 1, "across", 32)     # crosses the cut: dropped
    sub.send(1, 2, "within", 32)     # same side: delivered
    engine.run(until=ms(10))
    assert eps[1].drain() == []
    assert eps[2].drain() == [(1, "within")]
    assert sub.counters()[f"substrate.{backend}.partition_drop"] == 1

    sub.heal_partition()
    sub.send(0, 1, "healed", 32)
    engine.run(until=ms(20))
    assert eps[1].drain() == [(0, "healed")]
    assert sub.counters()[f"substrate.{backend}.partition_drop"] == 1


def test_connection_first_used_during_a_cut_drops_then_heals(backend):
    # A connection made while a partition is set is cut from the start:
    # RDMA's bulk-lane QPs (RDMC's data plane) are made on their first
    # write, a TCP stream on its first send.
    engine = Engine(seed=15)
    sub, _procs, eps = make_cluster(backend, engine)
    landed = []
    if backend == "rdma":
        region = sub.register(1, "bulk", 1 << 20,
                              on_write=lambda _k, v, _s: landed.append(v))
        rkey = region.grant()

        def post(payload):
            sub.write(0, 1, region, rkey, 0, payload, 32, lane="bulk")
    else:
        def post(payload):
            sub.send(0, 1, payload, 32)

    def arrived():
        got = landed + [payload for _src, payload in eps[1].drain()]
        landed.clear()
        return got

    sub.set_partition([0], [1, 2])
    made = len(sub._connections)
    post("across")                   # makes the connection, then drops
    engine.run(until=ms(10))
    assert len(sub._connections) == made + 1
    assert sub._connections[-1].cut
    assert arrived() == []
    assert sub.counters()[f"substrate.{backend}.partition_drop"] == 1

    sub.heal_partition()
    post("healed")
    engine.run(until=ms(20))
    assert not sub._connections[-1].cut
    assert arrived() == ["healed"]
    assert sub.counters()[f"substrate.{backend}.partition_drop"] == 1


def test_unnamed_nodes_are_isolated(backend):
    engine = Engine(seed=7)
    sub, _procs, eps = make_cluster(backend, engine)
    sub.set_partition([1, 2])        # node 0 not named anywhere
    sub.send(0, 1, "from-isolated", 32)
    sub.send(1, 0, "to-isolated", 32)
    engine.run(until=ms(10))
    assert eps[0].drain() == []
    assert eps[1].drain() == []


# ------------------------------------------------------------ cost charging

def test_send_charges_sender_cpu(backend):
    engine = Engine(seed=8)
    sub, procs, _eps = make_cluster(backend, engine)
    params = sub.params
    before = procs[0].cpu.busy_until
    sub.send(0, 1, "x", 64)
    assert procs[0].cpu.busy_until == max(before, engine.now) + params.send_cpu_ns


def test_drain_charges_receiver_cpu_per_cost_model(backend):
    # TCP pays kernel CPU per message picked up; one-sided RDMA pays
    # nothing — the substrate-shape difference the paper builds on.
    engine = Engine(seed=9)
    sub, procs, eps = make_cluster(backend, engine)
    for i in range(8):
        sub.send(0, 1, i, 64)
    engine.run(until=ms(10))
    before = procs[1].cpu.busy_until
    got = eps[1].drain()
    assert len(got) == 8
    recv = sub.params.recv_cpu_ns
    if recv == 0:
        assert procs[1].cpu.busy_until == before
    else:
        assert procs[1].cpu.busy_until == max(before, engine.now) + 8 * recv


def test_tx_accounting_matches_cost_model(backend):
    engine = Engine(seed=10)
    sub, _procs, _eps = make_cluster(backend, engine)
    sizes = [10, 64, 1_000]
    for sz in sizes:
        sub.send(0, 1, "p", sz)
    engine.run(until=ms(10))
    c = sub.counters()
    assert c[f"substrate.{backend}.tx_msgs"] == len(sizes)
    assert c[f"substrate.{backend}.tx_bytes"] == sum(
        sub.params.wire_bytes(sz) for sz in sizes)
    assert sub.total_tx_bytes() == c[f"substrate.{backend}.tx_bytes"]


def test_retransmits_counted_under_loss(backend):
    engine = Engine(seed=11)
    params = BACKEND_PARAMS[backend](loss_prob=1.0)
    sub, _procs, _eps = make_cluster(backend, engine, params=params)
    for i in range(5):
        sub.send(0, 1, i, 64)
    engine.run(until=ms(500))
    assert sub.counters()[f"substrate.{backend}.retransmits"] == 5


# ----------------------------------------------------------- counter names

def test_counter_namespace_is_uniform(backend):
    engine = Engine(seed=12)
    sub, _procs, eps = make_cluster(backend, engine)
    sub.send(0, 1, "x", 64)
    engine.run(until=ms(10))
    eps[1].drain()
    c = sub.counters()
    prefix = f"substrate.{backend}."
    assert all(k.startswith(prefix) for k in c)
    for name in CANONICAL_COUNTERS:
        assert prefix + name in c
    assert c[prefix + "rx_msgs"] >= 1

    # publish_counters folds the snapshot into the engine's tracer so
    # post-run analyses read transport totals like protocol counters.
    sub.publish_counters()
    assert engine.trace.get(prefix + "tx_msgs") == c[prefix + "tx_msgs"]


def test_broadcast_excludes_sender(backend):
    engine = Engine(seed=13)
    sub, _procs, eps = make_cluster(backend, engine)
    sub.broadcast(0, [0, 1, 2], "hello", 32)
    engine.run(until=ms(10))
    assert eps[0].drain() == []
    assert eps[1].drain() == [(0, "hello")]
    assert eps[2].drain() == [(0, "hello")]


def test_crashed_receiver_drops_message(backend):
    engine = Engine(seed=14)
    sub, procs, eps = make_cluster(backend, engine)
    procs[1].crash()
    sub.crash_node(1)
    sub.send(0, 1, "late", 32)
    engine.run(until=ms(10))
    assert eps[1].drain() == []


# -------------------------------------------------------- shared cost maths

def test_wire_math_is_shared_across_models():
    rdma, tcp = RdmaParams(), TcpParams()
    for payload in (0, 10, 100, 10_000):
        assert rdma.wire_bytes(payload) == max(
            rdma.min_wire_bytes, payload + rdma.header_bytes)
        assert tcp.wire_bytes(payload) == payload + tcp.header_bytes
        for p in (rdma, tcp):
            assert p.tx_serialization_ns(payload) == max(
                1, int(p.wire_bytes(payload) / p.link_bandwidth_bytes_per_ns))


def test_cost_table_has_uniform_keys():
    keys = None
    for p in (RdmaParams(), TcpParams()):
        table = p.cost_table()
        if keys is None:
            keys = set(table)
        assert set(table) == keys
        assert table["send_cpu_ns"] > 0
