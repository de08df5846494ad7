"""Unit tests for failure injection."""

import pytest

from repro.sim import Engine, FailureInjector, Process, ProcessConfig, us


class Ticker(Process):
    def __init__(self, engine, node_id):
        super().__init__(engine, node_id,
                         ProcessConfig(poll_interval_ns=100, poll_jitter_ns=0))
        self.ticks = 0

    def on_poll(self):
        self.ticks += 1


def _cluster(e, n=3):
    procs = [Ticker(e, i) for i in range(n)]
    for p in procs:
        p.start()
    return procs


def test_crash_at_stops_node():
    e = Engine(seed=1)
    procs = _cluster(e)
    inj = FailureInjector(e, procs)
    inj.crash_at(us(5), 1)
    e.run(until=us(10))
    assert procs[1].crashed
    assert not procs[0].crashed
    assert inj.alive() == [0, 2]


def test_methods_accept_process_objects():
    """Every injector method takes either a node id or the Process."""
    e = Engine(seed=1)
    procs = _cluster(e)
    inj = FailureInjector(e, procs)
    inj.crash_at(us(5), procs[1])
    inj.slow_node(procs[2], 10.0)
    inj.deschedule_at(us(1), procs[0], us(3))
    e.run(until=us(20))
    assert procs[1].crashed
    assert inj.alive() == [0, 2]
    assert procs[0].ticks > 5 * procs[2].ticks


def test_id_and_process_forms_are_equivalent():
    e1 = Engine(seed=2)
    p1 = _cluster(e1)
    FailureInjector(e1, p1).crash_at(us(5), 1)
    e1.run(until=us(10))

    e2 = Engine(seed=2)
    p2 = _cluster(e2)
    FailureInjector(e2, p2).crash_at(us(5), p2[1])
    e2.run(until=us(10))

    assert [p.ticks for p in p1] == [p.ticks for p in p2]
    assert [p.crashed for p in p1] == [p.crashed for p in p2]


def test_unknown_node_raises():
    e = Engine(seed=1)
    inj = FailureInjector(e, _cluster(e))
    with pytest.raises(KeyError):
        inj.crash_at(10, 99)


def test_deschedule_at_pauses_node():
    e = Engine(seed=1)
    procs = _cluster(e)
    inj = FailureInjector(e, procs)
    inj.deschedule_at(us(1), 0, us(50))
    e.run(until=us(60))
    # Node 0 lost ~50us of polling relative to node 2.
    assert procs[2].ticks - procs[0].ticks > 300


def test_slow_node_scales_speed():
    e = Engine(seed=1)
    procs = _cluster(e)
    inj = FailureInjector(e, procs)
    inj.slow_node(1, 10.0)
    e.run(until=us(20))
    assert procs[0].ticks > 5 * procs[1].ticks


def _grouped_cluster(e, groups=2, n=2):
    procs = []
    for g in range(groups):
        with e.scoped(g):
            procs.extend(_cluster(e, n))
    return procs


def test_grouped_processes_accept_group_node_addresses():
    e = Engine(seed=1)
    procs = _grouped_cluster(e)
    inj = FailureInjector(e, procs)
    inj.crash_at(us(5), (1, 0))
    e.run(until=us(10))
    crashed = [p for p in procs if p.crashed]
    assert [(p.group, p.node_id) for p in crashed] == [(1, 0)]


def test_colliding_bare_int_raises_with_guidance():
    e = Engine(seed=1)
    inj = FailureInjector(e, _grouped_cluster(e))
    with pytest.raises(KeyError, match=r"ambiguous across groups \[0, 1\]"):
        inj.crash_at(us(5), 0)


def test_mixed_flat_and_grouped_keeps_unique_ints_working():
    e = Engine(seed=1)
    flat = _cluster(e, n=1)          # node 0, no group
    with e.scoped(0):
        grouped = _cluster(e, n=2)   # (0, 0), (0, 1)
    inj = FailureInjector(e, flat + grouped)
    # node_id 1 exists only in group 0: the bare int still resolves.
    inj.crash_at(us(5), 1)
    # node_id 0 exists both flat and grouped: ambiguous.
    with pytest.raises(KeyError, match="ambiguous"):
        inj.crash_at(us(5), 0)
    e.run(until=us(10))
    assert [p.crashed for p in grouped] == [False, True]
    assert not flat[0].crashed


def test_alive_reports_hierarchical_addresses():
    e = Engine(seed=1)
    procs = _grouped_cluster(e)
    inj = FailureInjector(e, procs)
    inj.crash_at(us(5), (0, 1))
    e.run(until=us(10))
    assert (0, 1) not in inj.alive()
    assert set(inj.alive()) == {(0, 0), (1, 0), (1, 1)}


def test_unknown_group_address_raises():
    e = Engine(seed=1)
    inj = FailureInjector(e, _grouped_cluster(e))
    with pytest.raises(KeyError, match="no process with address"):
        inj.crash_at(us(5), (7, 0))
