"""Fault-seeded monitor tests: every shipped monitor fires on its
seeded fault, with the right witness — and stays silent on the
corresponding healthy history.

Histories are forged through :meth:`MonitorRegistry.ingest`, the
fault-seeding entry point: the simulator itself never produces these
event sequences (that is the point), so each test states the adversarial
history explicitly.
"""

from __future__ import annotations

import pytest

from repro.monitors import (
    CommitQuorumAccept,
    DEFAULT_MONITORS,
    LogPrefixAgreement,
    Monitor,
    MonitorRegistry,
    SingleLeaderPerTerm,
    SlotReuseSafety,
    SstMonotonic,
    Violation,
)


def _registry(factories=None) -> MonitorRegistry:
    return MonitorRegistry(engine=None, factories=factories)


def _only(registry: MonitorRegistry, monitor_name: str) -> Violation:
    """The run's single violation, asserted to come from ``monitor_name``."""
    vs = registry.finish()
    assert len(vs) == 1, [str(v) for v in vs]
    assert vs[0].monitor == monitor_name
    return vs[0]


# --------------------------------------------------------- single leader


def test_forged_second_leader_fires_with_both_claims_as_witness():
    r = _registry()
    first = r.ingest(None, "acuerdo", 3, "leader", 0, t=100, term=7)
    second = r.ingest(None, "acuerdo", 3, "leader", 2, t=250, term=7)
    v = _only(r, "single_leader_per_term")
    assert v.witness == (first, second)
    assert v.t == 250 and v.protocol == "acuerdo" and v.group is None
    assert "term 7" in v.detail and "node 0" in v.detail and "node 2" in v.detail


def test_releader_same_node_and_new_terms_are_clean():
    r = _registry()
    r.ingest(None, "etcd", 5, "leader", 1, t=10, term=3)
    r.ingest(None, "etcd", 5, "leader", 1, t=20, term=3)   # re-announce
    r.ingest(None, "etcd", 5, "leader", 4, t=30, term=4)   # new term
    assert r.finish() == []


def test_leader_claims_are_per_group():
    # The same term claimed by different nodes in *different* groups is
    # two independent elections, not a violation.
    r = _registry()
    r.ingest(0, "acuerdo", 3, "leader", 0, t=10, term=1)
    r.ingest(1, "acuerdo", 3, "leader", 2, t=11, term=1)
    assert r.finish() == []
    assert set(r.groups) == {0, 1}


# --------------------------------------------------------- log prefix


def test_divergent_delivery_fires_with_position_and_both_payloads():
    r = _registry()
    a, b = object(), object()
    first = r.ingest(None, "zookeeper", 3, "deliver", 0, t=10, key=a)
    r.ingest(None, "zookeeper", 3, "deliver", 1, t=11, key=a)
    r.ingest(None, "zookeeper", 3, "deliver", 0, t=20, key=b)
    # Node 2 starts delivering from position 0 with the wrong payload —
    # the truncated/diverged-follower fault.
    bad = r.ingest(None, "zookeeper", 3, "deliver", 2, t=30, key=b)
    # A forged first delivery carrying every optional field fixes
    # position 2; node 1 then diverges from it.
    odd = r.ingest(None, "zookeeper", 3, "deliver", 0, t=40, key="x",
                   term=5, slot=7, seq=9, extra="forged")
    r.ingest(None, "zookeeper", 3, "deliver", 1, t=45, key=b)
    bad2 = r.ingest(None, "zookeeper", 3, "deliver", 1, t=50, key="y")
    vs = r.finish()
    assert [v.monitor for v in vs] == ["log_prefix_agreement"] * 2
    v, v2 = vs
    # The canonical order keeps columns; the first delivery's event is
    # rebuilt field for field, the forged one kept whole.
    assert v.witness == (first, bad)
    assert tuple(v.witness[0]) == (10, None, "zookeeper", "deliver", 0,
                                   None, None, a, None, None)
    assert v.witness[0].key is a and v.witness[1] is bad
    assert "position 0" in v.detail and v.t == 30
    assert v2.witness == (odd, bad2)
    assert tuple(v2.witness[0]) == (40, None, "zookeeper", "deliver", 0,
                                    5, 7, "x", 9, "forged")
    assert "position 2" in v2.detail and v2.t == 50


def test_prefix_related_logs_at_different_lengths_are_clean():
    r = _registry()
    keys = ["k0", "k1", "k2"]
    for i, k in enumerate(keys):
        r.ingest(None, "acuerdo", 3, "deliver", 0, t=i, key=k)
    # A trailing node that has only delivered a prefix is fine.
    r.ingest(None, "acuerdo", 3, "deliver", 1, t=10, key="k0")
    r.ingest(None, "acuerdo", 3, "deliver", 1, t=11, key="k1")
    assert r.finish() == []


def test_equal_but_distinct_payload_objects_are_clean():
    # Forged events may rebuild payloads; value equality must suffice.
    r = _registry()
    r.ingest(None, "apus", 3, "deliver", 0, t=1, key=(1, "x"))
    r.ingest(None, "apus", 3, "deliver", 1, t=2, key=(1, "x"))
    assert r.finish() == []


# --------------------------------------------------------- commit quorum


def test_early_commit_fires_with_commit_and_accepts_as_witness():
    r = _registry()
    acc = r.ingest(None, "libpaxos", 3, "accept", 0, t=5, slot=9)
    commit = r.ingest(None, "libpaxos", 3, "commit", 0, t=6, slot=9)
    v = _only(r, "commit_quorum_accept")
    assert v.witness[0] is commit
    assert acc in v.witness
    assert "only 1 accept(s)" in v.detail and "quorum is 2" in v.detail


def test_commit_covered_by_cumulative_frontiers_is_clean():
    r = _registry()
    r.ingest(None, "acuerdo", 5, "accept", 0, t=1, slot=12)
    r.ingest(None, "acuerdo", 5, "accept", 1, t=2, slot=12)
    r.ingest(None, "acuerdo", 5, "accept", 3, t=3, slot=15)
    r.ingest(None, "acuerdo", 5, "commit", 0, t=4, slot=12)  # 3 >= quorum(5)=3
    assert r.finish() == []


def test_quorum_for_a_different_value_does_not_justify_the_commit():
    # Per-instance accepts carry value identity: two accepts of value X
    # must not cover a commit of value Y at the same slot.
    r = _registry()
    r.ingest(None, "libpaxos", 3, "accept_one", 0, t=1, slot=4, key="X")
    r.ingest(None, "libpaxos", 3, "accept_one", 1, t=2, slot=4, key="X")
    r.ingest(None, "libpaxos", 3, "commit", 2, t=3, slot=4, key="Y")
    v = _only(r, "commit_quorum_accept")
    assert "slot 4" in v.detail


def test_truncation_lowers_the_frontier_before_commit_checks():
    r = _registry()
    r.ingest(None, "etcd", 3, "accept", 0, t=1, slot=10)
    r.ingest(None, "etcd", 3, "accept", 1, t=2, slot=10)
    r.ingest(None, "etcd", 3, "commit", 0, t=3, slot=8)   # clean: 2 accepts
    # A state-transfer install truncates node 1 back below slot 9...
    r.ingest(None, "etcd", 3, "accept_trunc", 1, t=4, slot=3)
    # ...so a commit of slot 9 is now covered by node 0 alone.
    r.ingest(None, "etcd", 3, "commit", 0, t=5, slot=9)
    v = _only(r, "commit_quorum_accept")
    assert "slot 9" in v.detail


def _book(registry: MonitorRegistry):
    """The group's shared accept bookkeeping."""
    cqa, = [m for m in registry.groups[None].monitors
            if isinstance(m, CommitQuorumAccept)]
    return cqa._book


def test_failed_slot_is_reported_again_at_a_later_replicas_commit():
    # Slot 4 fails its check; slot 5 then raises the proven watermark
    # past it.  A later replica's commit of slot 4 is still re-checked
    # and re-reported, and once a quorum covers it the slot is proven.
    r = _registry()
    r.ingest(None, "libpaxos", 3, "accept_one", 0, t=1, slot=4, key="v")
    first = r.ingest(None, "libpaxos", 3, "commit", 0, t=2, slot=4, key="v")
    for node in (0, 1):
        r.ingest(None, "libpaxos", 3, "accept_one", node, t=3, slot=5, key="w")
    r.ingest(None, "libpaxos", 3, "commit", 0, t=4, slot=5, key="w")
    again = r.ingest(None, "libpaxos", 3, "commit", 1, t=5, slot=4, key="v")
    r.ingest(None, "libpaxos", 3, "accept_one", 1, t=6, slot=4, key="v")
    r.ingest(None, "libpaxos", 3, "commit", 2, t=7, slot=4, key="v")
    r.ingest(None, "libpaxos", 3, "commit", 2, t=8, slot=5, key="w")
    vs = r.finish()
    assert [v.witness[0] for v in vs] == [first, again]
    assert all("slot 4" in v.detail and "only 1 accept(s)" in v.detail
               for v in vs)
    book = _book(r)
    assert book.proven == 5 and book.failed == set() and book.per == {}


def test_recommit_after_accept_trunc_is_not_rechecked():
    # A slot proven at its first commit stays proven: a later replica
    # re-committing it after a truncation lowered a frontier below it
    # is not checked again (a first commit above the new frontier is).
    r = _registry()
    r.ingest(None, "etcd", 3, "accept", 0, t=1, slot=10)
    r.ingest(None, "etcd", 3, "accept", 1, t=2, slot=10)
    for slot in (7, 8):
        r.ingest(None, "etcd", 3, "commit", 0, t=3, slot=slot)
    r.ingest(None, "etcd", 3, "accept_trunc", 1, t=4, slot=3)
    for slot in (7, 8):                    # re-commits: clean
        r.ingest(None, "etcd", 3, "commit", 1, t=5, slot=slot)
    r.ingest(None, "etcd", 3, "commit", 0, t=7, slot=9)   # first: fires
    v = _only(r, "commit_quorum_accept")
    assert "slot 9" in v.detail and v.t == 7


@pytest.mark.parametrize("standalone", [False, True])
def test_ring_release_after_first_commit_reads_the_slots_accepts(standalone):
    # Derecho releases a ring slot on all-member delivery, after the
    # slot's first commit: its accepts must outlive that commit until
    # the release reads them, and go once both are past.
    r = _registry(factories=[SlotReuseSafety] if standalone else None)
    slot = (1, 0)
    r.ingest(None, "derecho-leader", 3, "slot_bind", 0, t=1, slot=slot,
             seq=0, extra=8)
    for node in (0, 1):
        r.ingest(None, "derecho-leader", 3, "accept_one", node, t=2,
                 slot=slot, key="m")
    r.ingest(None, "derecho-leader", 3, "commit", 0, t=3, slot=slot, key="m")
    g = r.groups[None]
    book = next(m for m in g.monitors if isinstance(m, SlotReuseSafety))._book
    assert set(book.per[slot]) == {0, 1} and book.bound == {slot: 1}
    r.ingest(None, "derecho-leader", 3, "slot_release", 0, t=4, seq=1)
    assert r.finish() == []
    assert book.per == {} and book.bound == {} and book.proven == slot
    # A late accept of the settled slot is not kept.
    r.ingest(None, "derecho-leader", 3, "accept_one", 2, t=5, slot=slot,
             key="m")
    assert book.per == {}


def test_ring_release_before_first_commit_keeps_accepts_for_the_commit():
    # Acuerdo-style accept-based release runs ahead of the commit: the
    # release is checked, and the accepts stay for the quorum check.
    r = _registry()
    r.ingest(None, "derecho-leader", 3, "slot_bind", 0, t=1, slot=7,
             seq=0, extra=8)
    for node in (0, 1):
        r.ingest(None, "derecho-leader", 3, "accept_one", node, t=2, slot=7,
                 key="m")
    r.ingest(None, "derecho-leader", 3, "slot_release", 0, t=3, seq=1)
    book = _book(r)
    assert set(book.per[7]) == {0, 1} and book.bound == {}
    r.ingest(None, "derecho-leader", 3, "commit", 1, t=4, slot=7, key="m")
    assert r.finish() == [] and book.per == {}


def test_early_release_still_fires_when_the_slot_was_committed():
    # The release check reads the slot's accepts as they stood: a
    # commit that failed its own check does not cover the release.
    r = _registry()
    bind = r.ingest(None, "derecho-leader", 3, "slot_bind", 0, t=1,
                    slot=2, seq=0, extra=8)
    r.ingest(None, "derecho-leader", 3, "accept_one", 0, t=2, slot=2, key="m")
    r.ingest(None, "derecho-leader", 3, "commit", 0, t=3, slot=2, key="m")
    rel = r.ingest(None, "derecho-leader", 3, "slot_release", 0, t=4, seq=1)
    vs = r.finish()
    assert [v.monitor for v in vs] == ["commit_quorum_accept",
                                       "slot_reuse_safety"]
    assert vs[1].witness == (bind, rel)
    assert set(_book(r).per[2]) == {0}   # failed: kept for a re-check


# --------------------------------------------------------- slot reuse


def test_bind_over_unreleased_slot_fires():
    r = _registry()
    prior = r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=1, slot="m0",
                     seq=0, extra=4)
    for s in range(1, 4):
        r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=1 + s, slot=f"m{s}",
                 seq=s)
    # Capacity 4, floor still 0: seq 4 wraps onto live seq 0.
    wrap = r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=9, slot="m4", seq=4)
    v = _only(r, "slot_reuse_safety")
    assert v.witness == (prior, wrap)
    assert "seq 4" in v.detail and "unreleased seq 0" in v.detail


def test_release_before_quorum_accept_fires():
    # Standalone monitor (no CommitQuorumAccept sibling to alias).
    r = _registry(factories=[SlotReuseSafety])
    bind = r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=1, slot="hdr0",
                    seq=0, extra=8)
    r.ingest(None, "acuerdo", 3, "accept", 0, t=2, slot="hdr0")
    rel = r.ingest(None, "acuerdo", 3, "slot_release", 0, t=3, seq=1)
    v = _only(r, "slot_reuse_safety")
    assert v.witness == (bind, rel)
    assert "before a quorum of 2" in v.detail


def test_administrative_release_waives_quorum_obligation():
    # Eviction / epoch re-baselining jumps the floor past slots nobody
    # accepted; the freed tail is recovered by the next epoch's diff,
    # so an ``extra="admin"`` release must not trip the quorum check.
    r = _registry(factories=[SlotReuseSafety])
    r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=1, slot="hdr0", seq=0,
             extra=8)
    r.ingest(None, "acuerdo", 3, "slot_release", 0, t=2, seq=1, extra="admin")
    assert r.finish() == []


def test_administrative_release_still_advances_floor_for_overwrite_check():
    # The admin waiver pops bound slots and moves the floor, so the
    # overwrite hazard keeps its exact arithmetic afterwards.
    r = _registry(factories=[SlotReuseSafety])
    for seq in range(4):
        r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=seq, slot=seq,
                 seq=seq, extra=4)
    r.ingest(None, "acuerdo", 3, "slot_release", 0, t=5, seq=2, extra="admin")
    # Floor is now 2: seq 5 sits exactly on live seq 1? No — live is
    # seq 5 - cap = 1 < floor 2, so this bind is clean...
    r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=6, slot=5, seq=5)
    assert r.finish() == []
    # ...but seq 6 wraps onto unreleased seq 2 and still fires.
    r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=7, slot=6, seq=6)
    v = _only(r, "slot_reuse_safety")
    assert "unreleased seq 2" in v.detail


def test_release_after_quorum_accept_is_clean_including_wraparound():
    r = _registry(factories=[SlotReuseSafety])
    for seq in range(12):                     # 3 laps of a capacity-4 ring
        r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=seq, slot=seq,
                 seq=seq, extra=4)
        r.ingest(None, "acuerdo", 3, "accept", 0, t=seq, slot=seq)
        r.ingest(None, "acuerdo", 3, "accept", 1, t=seq, slot=seq)
        r.ingest(None, "acuerdo", 3, "slot_release", 0, t=seq, seq=seq + 1)
    assert r.finish() == []


def test_filler_slots_carry_no_release_obligation():
    r = _registry(factories=[SlotReuseSafety])
    r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=1, slot=None, seq=0,
             extra=4)
    r.ingest(None, "acuerdo", 3, "slot_release", 0, t=2, seq=1)
    assert r.finish() == []


def test_slot_reuse_aliases_commit_quorum_accept_in_the_default_set():
    # With both monitors registered (the default set), SlotReuseSafety
    # shares CommitQuorumAccept's accept bookkeeping and unsubscribes
    # from the accept kinds — but must still see accepts routed only to
    # its sibling.
    r = _registry()
    r.ingest(None, "acuerdo", 3, "accept", 0, t=1, slot="h0")
    g = r.groups[None]
    srs = next(m for m in g.monitors if isinstance(m, SlotReuseSafety))
    cqa = next(m for m in g.monitors if isinstance(m, CommitQuorumAccept))
    assert srs._book is cqa._book
    assert srs.KINDS == frozenset({"slot_bind", "slot_release"})
    assert g.handlers["accept"] == [cqa.on_mark]
    r.ingest(None, "acuerdo", 3, "accept", 1, t=2, slot="h0")
    r.ingest(None, "acuerdo", 3, "slot_bind", 0, t=3, slot="h0", seq=0,
             extra=8)
    r.ingest(None, "acuerdo", 3, "slot_release", 0, t=4, seq=1)
    assert r.finish() == []


# ------------------------------------------------------ sst monotonicity


def test_sst_row_going_backwards_fires():
    r = _registry()
    r.ingest(None, "acuerdo", 3, "sst_row", 1, t=10,
             key="accept", seq=0, slot=7, extra=3)       # 3 -> 7: fine
    r.ingest(None, "acuerdo", 3, "sst_row", 1, t=20,
             key="accept", seq=0, slot=2, extra=7)       # 7 -> 2: replay
    v = _only(r, "sst_monotonic")
    assert "went" in v.detail and "backwards" in v.detail
    assert "'accept'" in v.detail and "row 0" in v.detail


def test_monotone_and_incomparable_sst_writes_stay_clean():
    r = _registry()
    r.ingest(None, "acuerdo", 3, "sst_row", 1, t=10,
             key="accept", seq=0, slot=5, extra=5)       # idempotent
    r.ingest(None, "acuerdo", 3, "sst_row", 1, t=20,
             key="accept", seq=0, slot=9, extra=5)       # forward
    r.ingest(None, "acuerdo", 3, "sst_row", 2, t=30,
             key="vote", seq=1, slot=(1, 2), extra=None) # first write
    r.ingest(None, "acuerdo", 3, "sst_row", 2, t=40,
             key="vote", seq=1, slot="x", extra=(1, 2))  # incomparable
    assert r.finish() == []


# ----------------------------------------------------- registry plumbing


def test_kind_dispatch_only_reaches_subscribers():
    seen: list[str] = []

    class CommitsOnly(Monitor):
        name = "commits_only"
        KINDS = frozenset({"commit"})

        def on_mark(self, ev):
            seen.append(ev.kind)

    class Everything(Monitor):
        name = "everything"
        KINDS = None

        def on_mark(self, ev):
            seen.append(f"*{ev.kind}")

    r = _registry(factories=[CommitsOnly, Everything])
    r.ingest(None, "acuerdo", 3, "accept", 0, t=1, slot=1)
    r.ingest(None, "acuerdo", 3, "commit", 0, t=2, slot=1)
    assert seen == ["*accept", "commit", "*commit"]
    assert r.events_seen == 2


def test_finish_folds_violation_counts_into_metrics():
    from repro.obs.metrics import MetricsRegistry

    r = _registry()
    r.ingest(None, "acuerdo", 3, "leader", 0, t=1, term=1)
    r.ingest(None, "acuerdo", 3, "leader", 1, t=2, term=1)
    metrics = MetricsRegistry()
    r.finish(metrics)
    snap = metrics.snapshot()
    assert snap["monitor.single_leader_per_term.violations"] == 1
    assert snap["monitor.log_prefix_agreement.violations"] == 0
    assert snap["monitor.commit_quorum_accept.violations"] == 0
    assert snap["monitor.slot_reuse_safety.violations"] == 0
    assert snap["monitor.violations"] == 1
    assert snap["monitor.events"] == 2


def test_check_raises_with_every_violation_listed():
    r = _registry()
    r.ingest(None, "mu", 3, "leader", 0, t=1, term=1)
    r.ingest(None, "mu", 3, "leader", 1, t=2, term=1)
    with pytest.raises(AssertionError) as exc:
        r.check()
    assert "single_leader_per_term" in str(exc.value)
    assert "1 safety violation" in str(exc.value)


def test_violation_str_names_shard_and_monitor():
    r = _registry()
    r.ingest(4, "acuerdo", 3, "leader", 0, t=9, term=2)
    r.ingest(4, "acuerdo", 3, "leader", 1, t=10, term=2)
    (v,) = r.finish()
    s = str(v)
    assert "[single_leader_per_term]" in s and "shard 4" in s
    assert "acuerdo" in s and "@ 10 ns" in s


def test_default_monitor_set_is_the_shipped_invariants():
    assert DEFAULT_MONITORS == (SingleLeaderPerTerm, LogPrefixAgreement,
                                CommitQuorumAccept, SlotReuseSafety,
                                SstMonotonic)
