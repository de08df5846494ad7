"""Tests for the §5 extension systems: DARE and Mu."""

from repro.protocols.dare import DareCluster
from repro.protocols.mu import MuCluster
from repro.sim import Engine, ms

from tests.protocols.conftest import drive


def _dare(n=3, seed=1):
    e = Engine(seed=seed)
    c = DareCluster(e, n)
    c.start()
    return e, c


def _mu(n=3, seed=1):
    e = Engine(seed=seed)
    c = MuCluster(e, n)
    c.start()
    return e, c


# ------------------------------------------------------------------- DARE

def test_dare_ordered_delivery():
    e, c = _dare()
    lats = drive(c, e, 40, gap_us=20)
    e.run(until=ms(8))
    assert len(lats) == 40
    for nid in range(3):
        assert c.deliveries.sequences[nid] == [("m", i) for i in range(40)]


def test_dare_fine_grained_completions_cost_two_rounds():
    """Each entry needs write->completion->valid->completion before it
    counts — slower than Acuerdo's fire-and-forget (§5)."""
    from repro.harness.fig8 import point
    from repro.harness.runspec import RunSpec

    dare = point(RunSpec(system="dare", n=3, payload_bytes=10, window=1),
                 min_completions=120)
    acu = point(RunSpec(system="acuerdo", n=3, payload_bytes=10, window=1),
                min_completions=120)
    assert dare.mean_latency_us > 1.15 * acu.mean_latency_us


def test_dare_completions_drive_replication_without_acceptor_cpu():
    e, c = _dare()
    # Stall both acceptors' CPUs entirely: replication and commit at the
    # leader must still proceed (completion-driven).
    c.nodes[1].cpu.stall(ms(5))
    c.nodes[2].cpu.stall(ms(5))
    done = []
    c.submit(("x", 0), 10, lambda i: done.append(i))
    e.run(until=ms(2))
    assert done == [0]


def test_dare_idle_leader_keeps_its_term():
    """With no traffic the commit index stands still, but the leader
    still pushes its commit row every period: acceptors must read each
    fresh row as a leader sign and never time out."""
    e, c = _dare(seed=7)
    e.run(until=ms(30))
    assert e.trace.get("dare.election_rounds") == 0
    assert c.leader_id() == 0


def test_dare_failover():
    e, c = _dare(seed=3)
    lats = drive(c, e, 20, gap_us=20)
    e.run(until=ms(5))
    assert len(lats) == 20
    c.crash(0)
    e.run(until=ms(12))
    assert c.leader_id() is not None and c.leader_id() != 0
    post = drive(c, e, 10, gap_us=20, start=100, tag="post")
    e.run(until=ms(18))
    assert len(post) == 10
    c.deliveries.check_total_order()


# --------------------------------------------------------------------- Mu

def test_mu_ordered_delivery():
    e, c = _mu()
    lats = drive(c, e, 40, gap_us=20)
    e.run(until=ms(8))
    assert len(lats) == 40
    for nid in range(3):
        assert c.deliveries.sequences[nid] == [("m", i) for i in range(40)]


def test_mu_completion_as_ack_beats_acuerdo_latency():
    """Mu's single-signaled-write commit path is the fastest of the
    lineage (its OSDI'20 microsecond claims) — the simulation runs the
    comparison the paper's testbed could not (§5)."""
    from repro.harness.fig8 import point
    from repro.harness.runspec import RunSpec

    mu = point(RunSpec(system="mu", n=3, payload_bytes=10, window=1),
               min_completions=120)
    acu = point(RunSpec(system="acuerdo", n=3, payload_bytes=10, window=1),
                min_completions=120)
    assert mu.mean_latency_us < acu.mean_latency_us


def test_mu_followers_never_ack_with_cpu():
    e, c = _mu()
    done = []
    c.nodes[1].cpu.stall(ms(5))
    c.nodes[2].cpu.stall(ms(5))
    c.submit(("x", 0), 10, lambda i: done.append(i))
    e.run(until=ms(2))
    assert done == [0]  # commits on completions alone


def test_mu_failover_requires_reconnection_and_is_slow():
    e, c = _mu(seed=3)
    lats = drive(c, e, 20, gap_us=20)
    e.run(until=ms(5))
    assert len(lats) == 20
    t0 = e.now
    c.crash(0)
    e.run(until=ms(30))
    assert e.trace.get("mu.failover_done") >= 1
    new = c.leader_id()
    assert new is not None and new != 0
    # Reconnection dominates: downtime is at least reconnect_ns.
    post = drive(c, e, 10, gap_us=20, start=100, tag="post")
    e.run(until=ms(40))
    assert len(post) == 10
    c.deliveries.check_total_order()


def test_mu_old_leader_writes_rejected_after_rekey():
    """Re-registration during fail-over revokes the deposed leader's
    rkeys — its in-flight writes can no longer land (the §5 exclusivity
    guarantee)."""
    e, c = _mu(seed=4)
    drive(c, e, 10, gap_us=20)
    e.run(until=ms(5))
    old_region, old_rkey = c.log_regions[1]
    c.crash(0)
    e.run(until=ms(30))
    import pytest
    from repro.rdma import AccessError

    with pytest.raises(AccessError):
        old_region.remote_write(old_rkey, (99, 99), ("stale", 10), 10)
