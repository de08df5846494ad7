"""Unit tests for ring-slot accounting control and SST change counters."""

from repro.rdma import RdmaFabric, RingBuffer, SharedStateTable
from repro.sim import Engine


def _ring(capacity=4):
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1, 2])
    return e, RingBuffer(fab, 0, [0, 1, 2], capacity=capacity)


def test_exclude_keeps_mirroring_but_frees_accounting():
    e, ring = _ring(capacity=2)
    ring.try_send("a", 10)
    ring.try_send("b", 10)
    ring.mark_released(0, 2)
    ring.mark_released(1, 2)
    assert ring.try_send("c", 10) is None     # receiver 2 wedges
    ring.exclude_from_accounting(2)
    assert ring.try_send("c", 10) is not None  # unwedged...
    e.run()
    assert [p for _s, p in ring.receiver(2).poll()] == ["a", "b", "c"]  # ...still mirrored


def test_include_in_accounting_readmits():
    e, ring = _ring(capacity=2)
    ring.try_send("a", 10)
    ring.exclude_from_accounting(2)
    ring.include_in_accounting(2, ring.next_seq)
    ring.mark_released(0, 1)
    ring.mark_released(1, 1)
    assert ring.free_slots() == 2  # readmitted at the current frontier


def test_include_clamps_to_sent():
    e, ring = _ring(capacity=4)
    ring.try_send("a", 10)
    ring.include_in_accounting(1, 999)
    assert ring._released[1] <= ring.next_seq


def test_sst_version_bumps_on_remote_and_local_writes():
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1])
    sst = SharedStateTable(fab, "v", [0, 1], initial=0)
    v0 = sst.version(1)
    sst.set_and_push(0, 42)
    assert sst.version(0) > 0  # local write bumped the writer's copy
    e.run()
    assert sst.version(1) > v0  # remote apply bumped the reader's copy


def test_sst_version_stable_without_traffic():
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1])
    sst = SharedStateTable(fab, "v", [0, 1], initial=0)
    v = sst.version(1)
    e.run()
    assert sst.version(1) == v
