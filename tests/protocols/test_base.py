"""Unit tests for the shared BroadcastSystem plumbing."""

import pytest

from repro.protocols.base import DeliveryRecorder


def test_total_order_accepts_prefix_related_sequences():
    r = DeliveryRecorder()
    for p in ("a", "b", "c"):
        r.record(0, p)
    for p in ("a", "b"):
        r.record(1, p)
    r.record(2, "a")
    r.check_total_order()  # prefixes are fine


def test_total_order_rejects_divergence():
    r = DeliveryRecorder()
    r.record(0, "a")
    r.record(0, "b")
    r.record(1, "a")
    r.record(1, "x")
    with pytest.raises(AssertionError, match="total order"):
        r.check_total_order()


def test_no_duplication():
    r = DeliveryRecorder()
    r.record(0, "a")
    r.record(0, "a")
    with pytest.raises(AssertionError, match="twice"):
        r.check_no_duplication()


def test_no_duplication_with_key():
    r = DeliveryRecorder()
    r.record(0, {"id": 1})
    r.record(0, {"id": 1})
    with pytest.raises(AssertionError):
        r.check_no_duplication(key=lambda p: p["id"])


def test_integrity():
    r = DeliveryRecorder()
    r.record(0, "known")
    r.check_integrity({"known"})
    r.record(0, "forged")
    with pytest.raises(AssertionError, match="thin-air"):
        r.check_integrity({"known"})


def test_counts_tracked_even_when_recording_disabled():
    r = DeliveryRecorder(enabled=False)
    r.record(0, "a")
    r.record(0, "b")
    assert r.delivered_count(0) == 2
    assert r.sequences == {}


def test_delivery_listeners_invoked():
    from repro.core import AcuerdoCluster
    from repro.sim import Engine, ms

    e = Engine(seed=1)
    c = AcuerdoCluster(e, 3)
    c.preseed_leader(0)
    c.start()
    heard = []
    c.delivery_listeners.append(lambda nid, payload: heard.append((nid, payload)))
    c.submit("x", 10)
    e.run(until=ms(1))
    assert ({n for n, _ in heard} == {0, 1, 2})
    assert all(p == "x" for _, p in heard)


# ------------------------------------------------- one delivery journal


def _reference_lists(history):
    """The per-node lists the recorder once kept: one list per node,
    appended in delivery order."""
    lists: dict = {}
    for node, payload in history:
        lists.setdefault(node, []).append(payload)
    return lists


def _reference_total_order(lists):
    """The pairwise check over per-node lists, message and all."""
    seqs = [s for s in lists.values() if s]
    for i, a in enumerate(seqs):
        for b in seqs[i + 1:]:
            n = min(len(a), len(b))
            if a[:n] != b[:n]:
                k = next(j for j in range(n) if a[j] != b[j])
                return (f"total order violated at position {k}: "
                        f"{a[k]!r} != {b[k]!r}")
    return None


def _total_order_message(r):
    try:
        r.check_total_order()
    except AssertionError as exc:
        return str(exc)
    return None


def test_forged_histories_match_the_per_node_lists():
    # Nodes deliver from a small alphabet, mostly in step, sometimes a
    # wrong payload: forks at the same and at different positions, two
    # nodes forking the same way, nodes that stop early, and equal but
    # distinct payload objects.
    import random

    rng = random.Random(7)
    diverged = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        truth = [("m", i) for i in range(12)]
        history, pos = [], [0] * n
        for _step in range(rng.randint(0, 40)):
            node = rng.randrange(n)
            i = pos[node]
            if i >= len(truth):
                continue
            roll = rng.random()
            payload = (("x", rng.randrange(2)) if roll < 0.08
                       else tuple(truth[i]) if roll < 0.2 else truth[i])
            history.append((node, payload))
            pos[node] += 1
        r = DeliveryRecorder()
        for node, payload in history:
            r.record(node, payload)
        lists = _reference_lists(history)
        assert dict(r.sequences) == lists
        assert list(r.sequences) == list(lists)
        expected = _reference_total_order(lists)
        assert _total_order_message(r) == expected
        diverged += expected is not None
    assert 50 < diverged < 350


def test_divergence_is_reported_at_its_position_with_both_payloads():
    r = DeliveryRecorder()
    for p in ("a", "b", "c", "d"):
        r.record(0, p)
    for p in ("a", "b", "x", "y"):
        r.record(1, p)        # forks at position 2
    for p in ("a", "b"):
        r.record(2, p)        # a prefix of both
    assert r.sequences[1] == ["a", "b", "x", "y"]
    assert r.sequences[2] == ["a", "b"]
    with pytest.raises(AssertionError) as exc:
        r.check_total_order()
    assert str(exc.value) == "total order violated at position 2: 'c' != 'x'"


def test_nodes_that_agree_share_one_journal():
    r = DeliveryRecorder()
    for node in (0, 1, 2):
        for p in ("a", "b", "c"):
            r.record(node, p)
    r.record(0, "d")          # the first fourth delivery fixes position 3
    r.record(1, "x")
    r.record(1, "y")
    assert r._canon == ["a", "b", "c", "d"]
    assert r._forks == {1: (3, ["x", "y"])}
    assert r.counts == {0: 4, 1: 5, 2: 3}


def test_disabled_recorder_keeps_counts_only():
    r = DeliveryRecorder(enabled=False)
    for node in (0, 1):
        r.record(node, "a")
    r.record(1, "b")
    assert r.counts == {0: 1, 1: 2}
    assert r._canon == [] and r._forks == {} and len(r.sequences) == 0
    with pytest.raises(KeyError):
        r.sequences[0]
    r.check_total_order()


def test_acuerdo_failover_sequences_match_the_per_node_lists():
    # n=5 with two leader crashes: the new leaders' diffs and the
    # crashed nodes' frozen prefixes all go through the journal.
    from repro.harness import RunSpec
    from repro.harness.factory import prepare
    from repro.sim import ms
    from repro.workloads.openloop import OpenLoopClient

    system = prepare(RunSpec(system="acuerdo", n=5, seed=3),
                     record_deliveries=True)
    engine = system.engine
    history = []
    system.delivery_listeners.append(
        lambda node, payload: history.append((node, payload)))
    crashed = []

    def crash_leader():
        crashed.append(system.leader_id())
        system.crash(crashed[-1])

    engine.schedule(ms(0.5), crash_leader)
    engine.schedule(ms(1.5), crash_leader)
    OpenLoopClient(system, period_ns=4_000, message_size=64).start()
    engine.run(until=engine.now + ms(3))
    assert None not in crashed and len(set(crashed)) == 2
    lists = _reference_lists(history)
    assert dict(system.deliveries.sequences) == lists
    assert all(system.deliveries.sequences[node] == lists[node]
               for node in lists)
    assert len({len(s) for s in lists.values()}) > 1   # crashed nodes lag
    system.deliveries.check_total_order()
    assert system.deliveries._forks == {}
