"""The shipped safety monitors.

Each consumes only the normalized event vocabulary documented in
:mod:`repro.monitors.registry`, so one implementation covers all nine
protocol backends; per-event work is a handful of dict operations.
"""

from __future__ import annotations

from array import array
from typing import Any, Optional

from repro.monitors.registry import Monitor, MonitorEvent


def _same_value(a: Any, b: Any) -> bool:
    """Value-identity equality: payloads travel un-serialized through
    the simulator, so object identity is the fast path; `==` covers
    forged events built from equal-but-distinct objects."""
    if a is b:
        return True
    try:
        return bool(a == b)
    except Exception:
        return False


class SingleLeaderPerTerm(Monitor):
    """At most one node ever claims leadership of a given term.

    Acuerdo epoch rounds, Raft terms, Zab epochs, Paxos ballots, Mu and
    DARE terms and Derecho view numbers all map onto ``term``; the
    election safety argument of every one of them reduces to this
    claim-uniqueness property.
    """

    name = "single_leader_per_term"
    KINDS = frozenset({"leader"})

    def __init__(self, registry, ctx):
        super().__init__(registry, ctx)
        self._claims: dict[Any, MonitorEvent] = {}

    def on_mark(self, ev: MonitorEvent) -> None:
        first = self._claims.get(ev.term)
        if first is None:
            self._claims[ev.term] = ev
        elif first.node != ev.node:
            self.report(
                f"two leaders for term {ev.term!r}: node {first.node} "
                f"(claimed at {first.t} ns) and node {ev.node}",
                witness=(first, ev), t=ev.t)


class LogPrefixAgreement(Monitor):
    """Every pair of per-node delivery sequences is prefix-related.

    Online form of the Total Order property (§2.2): position ``i`` of
    the delivery order is fixed by whichever node delivers it first;
    any node later delivering a *different* payload at position ``i``
    is a divergent log.  Rides the central ``deliver`` events emitted
    by ``BroadcastSystem.record_delivery``, so every backend is covered
    with no per-protocol code.

    The canonical order grows with every delivered position, so it is
    kept as columns -- first-delivery time and node in ``array('q')``,
    the payload reference in a list (pinning the object keeps its id()
    stable for the run) -- and a divergence rebuilds the first
    delivery's event field for field.  A first delivery carrying more
    than those three fields (only a forged one can) is kept whole.
    """

    name = "log_prefix_agreement"
    KINDS = frozenset({"deliver"})

    def __init__(self, registry, ctx):
        super().__init__(registry, ctx)
        self._t = array("q")
        self._node = array("q")
        self._key: list[Any] = []
        self._whole: dict[int, MonitorEvent] = {}   # position -> odd event
        self._pos: dict[int, int] = {}

    def on_mark(self, ev: MonitorEvent) -> None:
        i = self._pos.get(ev.node, 0)
        keys = self._key
        if i < len(keys):
            first = keys[i]
            # Identity check inlined: payloads travel un-serialized, so
            # matching deliveries are almost always the same object.
            if first is not ev.key and not _same_value(first, ev.key):
                canon = self._first_delivery(i)
                self.report(
                    f"divergent delivery at position {i}: node {ev.node} "
                    f"delivered {ev.key!r} where node {canon.node} "
                    f"delivered {first!r}",
                    witness=(canon, ev), t=ev.t)
        else:
            # Kind and group are this monitor's by dispatch.
            if (ev.term is ev.slot is ev.seq is ev.extra is None
                    and type(ev.t) is int and type(ev.node) is int
                    and ev.protocol == self.ctx.protocol):
                self._t.append(ev.t)
                self._node.append(ev.node)
            else:
                self._whole[i] = ev
                self._t.append(0)
                self._node.append(0)
            keys.append(ev.key)
        self._pos[ev.node] = i + 1

    def _first_delivery(self, i: int) -> MonitorEvent:
        """The event that fixed position ``i`` of the canonical order."""
        ev = self._whole.get(i)
        if ev is not None:
            return ev
        ctx = self.ctx
        return MonitorEvent(self._t[i], ctx.group, ctx.protocol, "deliver",
                            self._node[i], key=self._key[i])


class CommitQuorumAccept(Monitor):
    """A committed slot was accepted by a write quorum first.

    Tracks each node's cumulative accepted frontier (``accept`` /
    ``accept_trunc``) and per-slot accept sets (``accept_one``); every
    ``commit`` of a slot must be covered by at least ``n // 2 + 1``
    acceptors — the majority floor all nine backends rely on (the
    all-replica protocols satisfy it trivially).  For per-slot accepts
    carrying a value identity, only accepts of the *same* value count
    (a quorum of accepts for a different value must not justify the
    commit).
    """

    name = "commit_quorum_accept"
    KINDS = frozenset({"accept", "accept_one", "accept_trunc", "commit"})

    def __init__(self, registry, ctx):
        super().__init__(registry, ctx)
        self._cum: dict[int, Any] = {}               # node -> max slot
        self._cum_ev: dict[int, MonitorEvent] = {}
        self._per: dict[Any, dict[int, MonitorEvent]] = {}  # slot -> accepts
        self._ok: set = set()                        # slots already proven
        self._quorum = ctx.quorum

    def on_mark(self, ev: MonitorEvent) -> None:
        # Branches ordered by event frequency (accept/commit dominate).
        kind = ev.kind
        if kind == "accept":
            cur = self._cum.get(ev.node)
            if cur is None or ev.slot > cur:
                self._cum[ev.node] = ev.slot
                self._cum_ev[ev.node] = ev
        elif kind == "commit":
            if ev.slot in self._ok:
                return
            acceptors, witness = self.quorum_of(ev.slot, ev.key)
            if acceptors < self._quorum:
                self.report(
                    f"slot {ev.slot!r} committed at node {ev.node} with "
                    f"only {acceptors} accept(s), quorum is "
                    f"{self.ctx.quorum}",
                    witness=(ev, *witness), t=ev.t)
            else:
                self._ok.add(ev.slot)
        elif kind == "accept_one":
            self._per.setdefault(ev.slot, {})[ev.node] = ev
        elif kind == "accept_trunc":
            cur = self._cum.get(ev.node)
            if cur is not None and ev.slot < cur:
                self._cum[ev.node] = ev.slot
                self._cum_ev[ev.node] = ev

    def quorum_of(self, slot: Any, key: Any = None) -> tuple[int, list]:
        """(acceptor count, witness events) covering ``slot``."""
        count = 0
        witness: list[MonitorEvent] = []
        for node, frontier in self._cum.items():
            if frontier >= slot:
                count += 1
                witness.append(self._cum_ev[node])
        for aev in self._per.get(slot, {}).values():
            if key is None or aev.key is None or _same_value(aev.key, key):
                count += 1
                witness.append(aev)
        return count, witness


class SlotReuseSafety(Monitor):
    """Broadcast-ring slots are never reused while still live.

    The Acuerdo §4.1 novelty is *accept-based* slot release: a ring
    slot frees as soon as a quorum has accepted its message (Derecho
    releases later, on all-member delivery).  Two hazards are checked
    against the ``slot_bind`` / ``slot_release`` events:

    - **overwrite**: a bind at ring sequence ``s`` while ``s - floor``
      reaches the ring capacity would overwrite an unreleased slot;
    - **early release**: releasing a sequence whose message has not
      been accepted by a quorum yet (the release policy ran ahead of
      the accept frontier — replayed slots could then diverge).

    Accept bookkeeping follows the same rules as
    :class:`CommitQuorumAccept`; when that monitor runs in the same
    group (the default set), this one aliases its frontier/accept maps
    instead of keeping a second copy and unsubscribes from the accept
    events — halving the handler work on the hottest event kind without
    changing what either monitor observes.
    """

    name = "slot_reuse_safety"
    KINDS = frozenset({"accept", "accept_one", "accept_trunc",
                       "slot_bind", "slot_release"})

    def __init__(self, registry, ctx):
        super().__init__(registry, ctx)
        # per ring owner: {"cap": int|None, "floor": int, "bound": {...}}
        self._rings: dict[int, dict] = {}
        self._cum: dict[int, Any] = {}
        self._per: dict[Any, "set[int] | dict"] = {}
        self._quorum = ctx.quorum

    def bind_group(self, monitors) -> None:
        for m in monitors:
            if isinstance(m, CommitQuorumAccept):
                self._cum = m._cum
                self._per = m._per
                self.KINDS = frozenset({"slot_bind", "slot_release"})
                return

    def _ring(self, owner: int) -> dict:
        r = self._rings.get(owner)
        if r is None:
            r = {"cap": None, "floor": 0, "bound": {}}
            self._rings[owner] = r
        return r

    def on_mark(self, ev: MonitorEvent) -> None:
        # Branches ordered by event frequency (accept/bind dominate).
        kind = ev.kind
        if kind == "accept":
            cur = self._cum.get(ev.node)
            if cur is None or ev.slot > cur:
                self._cum[ev.node] = ev.slot
        elif kind == "slot_bind":
            r = self._ring(ev.node)
            if ev.extra is not None:
                r["cap"] = ev.extra
            cap = r["cap"]
            if cap is not None and ev.seq - r["floor"] >= cap:
                live = ev.seq - cap
                prior = r["bound"].get(live)
                self.report(
                    f"ring {ev.node} bound seq {ev.seq} (capacity {cap}) "
                    f"over unreleased seq {live}",
                    witness=tuple(e for e in (prior, ev) if e is not None),
                    t=ev.t)
            r["bound"][ev.seq] = ev
        elif kind == "slot_release":
            r = self._ring(ev.node)
            upto = ev.seq
            # An ``extra="admin"`` release is a membership re-baseline
            # (eviction of a suspected-dead receiver, epoch turnover
            # re-admitting it): the freed tail is recovered by the next
            # epoch's diff, not covered by the accept rule, so the
            # quorum obligation is waived.  Bound slots still pop and
            # the floor still advances — the overwrite check above
            # keeps guarding actual reuse.
            admin = ev.extra == "admin"
            for s in range(r["floor"], upto):
                bev = r["bound"].pop(s, None)
                if bev is None or bev.slot is None or admin:
                    continue   # filler/null send: no safety obligation
                if not self._quorum_accepted(bev.slot):
                    self.report(
                        f"ring {ev.node} released seq {s} (slot "
                        f"{bev.slot!r}) before a quorum of "
                        f"{self.ctx.quorum} accepted it",
                        witness=(bev, ev), t=ev.t)
            if upto > r["floor"]:
                r["floor"] = upto
        elif kind == "accept_one":
            self._per.setdefault(ev.slot, set()).add(ev.node)
        elif kind == "accept_trunc":
            cur = self._cum.get(ev.node)
            if cur is not None and ev.slot < cur:
                self._cum[ev.node] = ev.slot

    def _quorum_accepted(self, slot: Any) -> bool:
        count = sum(1 for frontier in self._cum.values() if frontier >= slot)
        count += len(self._per.get(slot, ()))
        return count >= self._quorum


class SstMonotonic(Monitor):
    """SST rows never go backwards.

    §3.2's "acknowledge only the newest message" argument rests on SST
    rows carrying monotonically increasing values under last-writer-wins
    overwrite + FIFO delivery.  A *replayed* stale row is precisely a
    row going backwards at some holder — the regression this monitor
    catches from ``sst_row`` events (emitted by the SST apply hook the
    Byzantine injector installs while an SST attack is armed; honest
    runs emit none, so this monitor is free outside adversarial
    scenarios).

    Event mapping: ``key`` = SST name, ``seq`` = row owner, ``slot`` =
    new value, ``extra`` = value being overwritten.
    """

    name = "sst_monotonic"
    KINDS = frozenset({"sst_row"})

    def on_mark(self, ev: MonitorEvent) -> None:
        old, new = ev.extra, ev.slot
        if old is None or new is None:
            return
        try:
            regressed = new < old
        except TypeError:
            regressed = False
        if regressed:
            self.report(
                f"SST {ev.key!r} row {ev.seq} at holder {ev.node} went "
                f"backwards: {old!r} -> {new!r}",
                witness=(ev,), t=ev.t)
