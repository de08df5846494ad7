"""Unit tests for the shared state table (Fig. 2)."""

import pytest

from repro.rdma import (RdmaFabric, RdmaParams, SendQueueFullError,
                        SharedStateTable)
from repro.sim import Engine, us


def _sst(n=3, seed=1, **kw):
    e = Engine(seed=seed)
    fab = RdmaFabric(e, list(range(n)))
    sst = SharedStateTable(fab, "t", list(range(n)), initial=0, **kw)
    return e, fab, sst


def test_local_write_is_immediate_remote_needs_push():
    e, fab, sst = _sst()
    sst.write_local(0, 7)
    assert sst.read(0, 0) == 7
    assert sst.read(1, 0) == 0  # not pushed yet
    sst.push(0)
    e.run()
    assert sst.read(1, 0) == 7
    assert sst.read(2, 0) == 7


def test_push_to_subset():
    e, fab, sst = _sst()
    sst.set_and_push(0, 5, targets=[1])
    e.run()
    assert sst.read(1, 0) == 5
    assert sst.read(2, 0) == 0


def test_overwrite_semantics_last_writer_wins():
    e, fab, sst = _sst()
    for v in (1, 2, 3):
        sst.set_and_push(0, v)
    e.run()
    assert sst.read(1, 0) == 3
    assert sst.read(2, 0) == 3


def test_each_node_owns_its_row():
    e, fab, sst = _sst()
    sst.set_and_push(0, "zero")
    sst.set_and_push(1, "one")
    sst.set_and_push(2, "two")
    e.run()
    for reader in range(3):
        assert sst.read(reader, 0) == "zero"
        assert sst.read(reader, 1) == "one"
        assert sst.read(reader, 2) == "two"


def test_snapshot_is_a_copy():
    e, fab, sst = _sst()
    snap = sst.snapshot(0)
    snap[1] = "mutated"
    assert sst.read(0, 1) == 0


def test_monotone_values_never_observed_regressing():
    """FIFO delivery means a reader never sees a row go backwards when
    the writer only ever increases it — the property §3.2 leans on."""
    e, fab, sst = _sst()
    observed = []

    def observe():
        observed.append(sst.read(1, 0))
        if e.now < us(50):
            e.schedule(200, observe)

    e.schedule(0, observe)
    for i in range(1, 101):
        sst.set_and_push(0, i)
        # Interleave pushes with simulated time so deliveries spread out.
        e.run(until=e.now + 300)
    e.run()
    assert observed == sorted(observed)
    assert sst.read(1, 0) == 100


def test_push_without_self_target():
    e, fab, sst = _sst()
    sst.write_local(1, 9)
    sst.push(1, targets=[1])  # pushing to self is a no-op, not an error
    e.run()
    assert sst.read(1, 1) == 9


def test_signal_interval_generates_completions():
    e, fab, sst = _sst(signal_interval=5)
    for i in range(25):
        sst.set_and_push(0, i, targets=[1])
    e.run()
    assert fab.nic(0).cq.total_seen == 5


def test_send_queue_full_mid_push_keeps_the_writes_already_posted():
    """A push that raises at its second destination has still posted —
    and counted — the first one's write."""
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1, 2], RdmaParams(max_send_queue=4))
    sst = SharedStateTable(fab, "t", [0, 1, 2], initial=0)
    scratch = fab.register(2, "scratch", 4096, on_write=lambda k, v, s: None)
    rkey = scratch.grant()
    for i in range(4):      # fill QP 0->2 with unsignaled writes
        fab.write(0, 2, scratch, rkey, i, None, 8)
    with pytest.raises(SendQueueFullError):
        sst.set_and_push(0, 7)
    assert sst.pushes == 1
    e.run()
    assert sst.read(1, 0) == 7
    assert sst.read(2, 0) == 0
