"""Unit tests for the group-commit disk model."""

from repro.sim import Engine, us
from repro.sim.disk import Disk


def test_single_append_costs_one_fsync():
    e = Engine(seed=1)
    d = Disk(e, fsync_ns=us(100))
    done = []
    d.append(lambda: done.append(e.now))
    e.run()
    assert done == [us(100)]
    assert d.syncs == 1


def test_appends_during_sync_share_next_flush():
    e = Engine(seed=1)
    d = Disk(e, fsync_ns=us(100))
    done = []
    d.append(lambda: done.append(("a", e.now)))
    e.schedule(us(10), lambda: d.append(lambda: done.append(("b", e.now))))
    e.schedule(us(20), lambda: d.append(lambda: done.append(("c", e.now))))
    e.run()
    # a syncs alone; b and c share the second flush.
    assert done[0] == ("a", us(100))
    assert done[1] == ("b", us(200))
    assert done[2] == ("c", us(200))
    assert d.syncs == 2


def test_group_commit_bounds_sync_count():
    e = Engine(seed=1)
    d = Disk(e, fsync_ns=us(100))
    done = []
    for i in range(50):
        e.schedule(i * 1000, lambda i=i: d.append(lambda: done.append(i)))
    e.run()
    assert len(done) == 50
    assert d.syncs <= 3  # 50us of arrivals fit in the first flush window


def test_callbacks_fire_in_append_order():
    e = Engine(seed=1)
    d = Disk(e, fsync_ns=us(50))
    done = []
    for i in range(10):
        d.append(lambda i=i: done.append(i))
    e.run()
    assert done == list(range(10))


def test_queue_depth_visible():
    e = Engine(seed=1)
    d = Disk(e, fsync_ns=us(100))
    d.append(lambda: None)
    d.append(lambda: None)
    assert d.queue_depth == 1  # first is syncing, second waits


def test_crashed_owner_device_completes_nothing():
    from repro.sim import Process

    e = Engine(seed=1)
    owner = Process(e, 0)
    d = Disk(e, fsync_ns=us(100), owner=owner)
    done = []
    d.append(lambda: done.append("in flight"))
    e.schedule(us(10), lambda: d.append(lambda: done.append("queued")))
    e.schedule(us(20), owner.crash)     # mid-sync
    e.run()
    assert done == []
    assert d.queue_depth == 0
    assert not d._busy
    assert d.syncs == 1                 # the queued append never started one
    assert e.now == us(100)
