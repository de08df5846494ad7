"""Unit tests for cluster-wide RDMA wiring."""

import pytest

from repro.rdma import RdmaFabric, RdmaParams
from repro.sim import Engine


def test_all_to_all_qps_created():
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1, 2])
    for a in range(3):
        for b in range(3):
            if a != b:
                qp = fab.qp(a, b)
                assert qp.src.node_id == a and qp.dst.node_id == b


def test_add_node_later_wires_both_directions():
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1])
    fab.add_node(7)
    assert fab.qp(0, 7).dst.node_id == 7
    assert fab.qp(7, 1).src.node_id == 7
    # Re-adding is a no-op returning the same NIC.
    assert fab.add_node(7) is fab.nic(7)


def test_total_tx_bytes_aggregates_all_nics():
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1])
    reg = fab.register(1, "r", 64, on_write=lambda *a: None)
    fab.write(0, 1, reg, reg.grant(), 0, None, 10)
    e.run()
    assert fab.total_tx_bytes() == fab.params.wire_bytes(10)


def test_client_hop_delay_model_matches_one_simulated_write():
    """EXPERIMENTS deviation 4: the workloads model the client's RDMA hop
    as ``client_hop_ns``.  Check it against the fabric: one request
    write (10 B payload plus a 16 B header) posted after the client's
    doorbell, plus the replica's mean poll interval to notice it."""
    from repro.core import AcuerdoCluster
    from repro.sim import ProcessConfig

    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1])
    landed = []
    reg = fab.register(1, "req", 64, on_write=lambda *a: landed.append(e.now))
    fab.write(0, 1, reg, reg.grant(), 0, None, 10 + 16,
              earliest_ns=fab.params.doorbell_cpu_ns)
    e.run()
    assert len(landed) == 1
    measured = landed[0] + ProcessConfig().poll_interval_ns
    assert 0.5 * measured < AcuerdoCluster.client_hop_ns < 3 * measured, measured


def test_crash_node_blocks_future_traffic_both_ways():
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1, 2])
    seen = []
    reg = fab.register(2, "r", 64, on_write=lambda k, v, s: seen.append(k))
    fab.crash_node(0)
    fab.write(0, 2, reg, reg.grant(), "from-crashed", None, 10)
    fab.write(1, 2, reg, reg.grant(), "from-live", None, 10)
    e.run()
    assert seen == ["from-live"]


def test_params_shared_across_fabric():
    p = RdmaParams(propagation_ns=123)
    e = Engine(seed=1)
    fab = RdmaFabric(e, [0, 1], p)
    assert fab.qp(0, 1).params.propagation_ns == 123
    assert fab.nic(0).params is p


@pytest.mark.parametrize("name", ["acuerdo", "derecho-leader", "derecho-all",
                                  "mu", "dare", "apus"])
def test_every_one_sided_write_is_posted_by_fabric_write(name, monkeypatch):
    """``RdmaFabric.write`` is the only poster of one-sided writes: no
    structure or protocol reaches ``QueuePair.post_write`` around it, so
    the partition drop and the lane choice live in one place."""
    from repro.harness.factory import _build_named, settle
    from repro.sim.engine import ms

    calls = [0]
    write = RdmaFabric.write

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return write(self, *args, **kwargs)

    monkeypatch.setattr(RdmaFabric, "write", counted)
    e = Engine(seed=7)
    system = _build_named(name, e, 3)
    settle(system, preseed=False)
    for i in range(50):
        system.submit(("cl", i), 64)
    e.run(until=e.now + ms(2))
    posted = sum(qp.posted for qp in system.substrate._all_qps())
    assert posted > 0
    assert calls[0] == posted
