"""Property-based tests for the RDMA substrate invariants (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.rdma import RdmaFabric, RdmaParams, RingBuffer, SharedStateTable
from repro.sim import Engine
from tests.properties import budget


@settings(max_examples=budget(40), deadline=None)
@given(st.integers(1, 200), st.floats(0.0, 0.4), st.integers(0, 2**16))
def test_qp_fifo_exactly_once_under_loss(count, loss, seed):
    """Reliable connection: every write delivered exactly once, in order,
    for any loss rate."""
    e = Engine(seed=seed)
    fab = RdmaFabric(e, [0, 1], RdmaParams(loss_prob=loss))
    seen = []
    reg = fab.register(1, "r", 1 << 16, on_write=lambda k, v, s: seen.append(k))
    for i in range(count):
        fab.write(0, 1, reg, reg.grant(), i, None, 10)
    e.run()
    assert seen == list(range(count))


@settings(max_examples=budget(40), deadline=None)
@given(st.integers(2, 64), st.lists(st.integers(0, 63), max_size=80),
       st.integers(0, 2**16))
def test_ring_conservation_and_order(capacity, release_marks, seed):
    """Ring buffer: receivers see a prefix of the send sequence, in
    order, and the sender never exceeds capacity minus releases."""
    e = Engine(seed=seed)
    fab = RdmaFabric(e, [0, 1])
    ring = RingBuffer(fab, 0, [0, 1], capacity=capacity)
    sent = []
    marks = iter(release_marks)
    for step in range(80):
        seq = ring.try_send(step, 10)
        if seq is not None:
            sent.append(step)
        else:
            # Stalled: release per the scripted marks (may not help).
            m = next(marks, None)
            if m is None:
                break
            ring.mark_released(0, m)
            ring.mark_released(1, m)
        assert 0 <= ring.free_slots() <= capacity
    e.run()
    got = [p for _seq, p in ring.receiver(1).poll()]
    assert got == sent  # exact prefix, in order, nothing lost or duplicated


@settings(max_examples=budget(40), deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=60),
       st.integers(0, 2**16))
def test_sst_reader_sees_monotone_prefix_of_monotone_writer(values, seed):
    """If the writer's row only increases, no reader ever observes it
    decrease — the §3.2 cumulative-acknowledgment invariant."""
    e = Engine(seed=seed)
    fab = RdmaFabric(e, [0, 1, 2])
    sst = SharedStateTable(fab, "m", [0, 1, 2], initial=-1)
    running_max = -1
    observed = []

    def observe():
        observed.append(sst.read(2, 0))
        if e.pending:
            e.schedule(137, observe)

    e.schedule(0, observe)
    for v in values:
        running_max = max(running_max, v)
        sst.set_and_push(0, running_max)
        e.run(until=e.now + 211)
    e.run()
    assert observed == sorted(observed)
    assert sst.read(1, 0) == running_max
    assert sst.read(2, 0) == running_max


@settings(max_examples=budget(25), deadline=None)
@given(st.integers(1, 400), st.integers(1, 1000), st.integers(0, 2**16))
def test_selective_signaling_retires_all_wqes(count, interval, seed):
    """Any signaling cadence with a trailing signaled write retires every
    WQE once completions drain."""
    e = Engine(seed=seed)
    fab = RdmaFabric(e, [0, 1], RdmaParams(max_send_queue=1 << 16))
    reg = fab.register(1, "r", 1 << 16, on_write=lambda k, v, s: None)
    rkey = reg.grant()
    for i in range(count):
        fab.write(0, 1, reg, rkey, i, None, 10,
                  signaled=(i % interval == interval - 1 or i == count - 1))
    e.run()
    assert fab.qp(0, 1).outstanding == 0
    assert reg.writes_received == count
