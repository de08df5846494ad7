"""Byzantine fault injection: scheduled lying, forging and replaying.

The crash/deschedule/slow-node injector (:mod:`repro.sim.failure`)
covers the paper's evaluated failure model; this module covers the
*untested trust assumptions* — what happens when a node misbehaves
instead of stopping.  A :class:`ByzantineInjector` attaches to the
engine as ``engine.byz``, is-None-gated at every interception site, so
byz-off runs execute no injection code and stay bit-identical to the
golden trace fingerprints.  It keeps that slot of its own, apart from
the observation probe, because it *rewrites* sends (tamper, duplicate,
forge) rather than observing them (DESIGN.md §12).  What it does emit
for the monitor oracle — forged ``leader`` claims and armed ``sst_row``
overwrites — goes through ``engine.probe`` like every other hook.

Attack modes (:data:`BYZ_MODES`):

``equivocate``
    The attacker claims leadership of the *current* term (a forged
    leadership announcement, conflicting with the real leader's claim)
    and forks any data-bearing message it sends: half its peers receive
    the real payload, the other half a forged variant.
``tamper``
    Every data-bearing message the attacker sends is rewritten to a
    forged payload — consistently, to all peers (the attacker's own
    local state keeps the original).
``duplicate``
    Every message the attacker sends is sent twice.
``replay_sst``
    The attacker snapshots its local SST copies when the attack arms
    and then repeatedly re-writes those *stale* rows into its peers'
    copies — the one-sided-write equivalent of replaying old packets.
``inflate``
    Vector inflation: the attacker forges *other* nodes' rows in the
    leader's accept SST copy so the leader observes a fake full-quorum
    accept vector (on Acuerdo-style SST systems), or floods forged
    relay paths (on Dolev, whose path vectors are its quorum analogue).
``corrupt_ring``
    The attacker's broadcast-ring writes carry a *different* forged
    payload per receiver — split-brain at the RDMA slot level.
``dup_ring``
    One ring slot is written twice to a victim receiver: the real
    payload followed by a forged twin in the same slot.

Every forgery is deterministic (derived from the payload, sequence
number and receiver — no RNG draws), so attacked runs replay
bit-identically under a fixed seed.

**Protection domains.**  "The Impact of RDMA on Agreement" argues the
RDMA substrate itself neutralizes part of this space: a queue pair only
grants write access to the registered region, and SST rows are owned —
a non-owner cannot forge a *remote* row it was never granted.  The SST
models this with :attr:`~repro.rdma.sst.SharedStateTable.protected`;
the injector counts such writes as ``blocked`` (the attack never
reaches the wire).  The attacker's *own* rings and rows are its to
corrupt — protection domains do not make Acuerdo Byzantine-tolerant,
they only shrink the attack surface (see DESIGN.md §12).

Outcome counters: ``attempts`` (forgeries tried), ``landed`` (reached a
victim), ``blocked`` (stopped by a protection domain) — the adversary
harness classifies each attack × system cell from these plus the
monitor verdict (:mod:`repro.harness.adversary`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.protocols.entrylog import EntryLog
from repro.sim.engine import Engine

#: The shipped attack modes, in matrix order.
BYZ_MODES = ("equivocate", "tamper", "duplicate", "replay_sst",
             "inflate", "corrupt_ring", "dup_ring")


def parse_byz(text: str) -> "tuple[str, int | tuple[int, int], float]":
    """Parse one attack-schedule entry ``"MODE:ADDR@MS"`` into
    ``(mode, address, time_ms)`` — e.g. ``"equivocate:1@2"`` (node 1
    starts equivocating 2 ms into the workload) or
    ``"inflate:3:1@0.5"`` (group 3's node 1, hierarchical address)."""
    from repro.sim.failure import parse_addr

    mode, sep, rest = text.partition(":")
    if not sep or mode not in BYZ_MODES:
        raise ValueError(
            f"cannot parse byz attack {text!r}; use 'MODE:ADDR@MS' with "
            f"MODE one of {BYZ_MODES}")
    addr_part, sep, when = rest.rpartition("@")
    if not sep:
        raise ValueError(
            f"cannot parse byz attack {text!r}; missing '@MS' arm time "
            f"(e.g. 'equivocate:1@2')")
    try:
        at_ms = float(when)
    except ValueError:
        raise ValueError(f"bad byz arm time in {text!r}: {when!r} is not "
                         f"a number of milliseconds") from None
    if at_ms < 0:
        raise ValueError(f"byz arm time must be >= 0 ms, got {text!r}")
    return mode, parse_addr(addr_part), at_ms


def _client_leaf(obj: Any) -> bool:
    """True for the closed/open-loop client payload convention
    ``("cl", i)`` — the data-bearing leaves worth forging."""
    return (type(obj) is tuple and len(obj) == 2 and obj[0] == "cl")


def _rewrite(obj: Any, pred: Callable[[Any], bool],
             forge: Callable[[Any], Any]) -> "tuple[Any, int]":
    """Deep-rewrite every ``pred``-matching leaf of a message tree.

    Walks tuples (namedtuples are rebuilt through their class, so
    ``Message``/``MsgHdr`` carriers survive), lists and the payload
    column of an :class:`EntryLog` (an Acuerdo diff's entries); returns
    ``(rewritten, hits)`` with the original object untouched.  Zero
    hits returns the original object itself — control messages pass
    through forgery-free.
    """
    if pred(obj):
        return forge(obj), 1
    if isinstance(obj, EntryLog):
        payloads, hits = _rewrite(obj.payloads, pred, forge)
        if not hits:
            return obj, 0
        out = obj[:]
        out.payloads = payloads
        return out, hits
    if type(obj) is tuple or isinstance(obj, tuple):
        items = []
        hits = 0
        for x in obj:
            y, h = _rewrite(x, pred, forge)
            items.append(y)
            hits += h
        if not hits:
            return obj, 0
        if hasattr(obj, "_fields"):
            return type(obj)(*items), hits
        return tuple(items), hits
    if isinstance(obj, list):
        items = []
        hits = 0
        for x in obj:
            y, h = _rewrite(x, pred, forge)
            items.append(y)
            hits += h
        return (items if hits else obj), hits
    return obj, 0


def _forge(leaf: Any) -> Any:
    """The canonical deterministic forgery: a tagged variant of the
    real leaf (distinct, hashable, reproducible)."""
    return ("byz",) + leaf


class ByzantineInjector:
    """Schedules Byzantine attacks against one deployment.

    Construction attaches the injector as ``engine.byz``; until an
    attack *arms*, every interception hook returns on a dict miss, and
    with no injector attached at all the substrate pays one attribute
    load + None check per send — the same zero-cost-when-off contract
    as ``engine.probe``.

    ``system`` is the :class:`~repro.protocols.base.BroadcastSystem`
    under attack; the SST/ring modes reach through it to the cluster's
    shared structures (protocol-aware adapters, keyed by what the
    system exposes — systems without the targeted surface record zero
    ``attempts`` and classify as not-applicable).
    """

    #: cadence of the scheduled SST/relay attack pumps (sim-ns).
    PUMP_PERIOD_NS = 25_000
    #: pumps per armed attack (bounded: the attack is a burst, not an
    #: unbounded event source).
    PUMPS = 12
    #: forged accept-vector counter — far past any real frontier.
    INFLATED_CNT = 1 << 20

    def __init__(self, engine: Engine, system: Any):
        self.engine = engine
        self.system = system
        # Heartbeat trains assume honest rows: materialize them and hand
        # their pushes back to the polls before any interception runs.
        trains = getattr(system, "trains", None)
        if trains is not None:
            trains.catch_up()
        engine.byz = self
        if trains is not None:
            trains.revalidate()
        self.attempts: dict[str, int] = {m: 0 for m in BYZ_MODES}
        self.landed: dict[str, int] = {m: 0 for m in BYZ_MODES}
        self.blocked: dict[str, int] = {m: 0 for m in BYZ_MODES}
        #: substrate-layer attacks by sender node -> active modes
        self._net_modes: dict[int, list[str]] = {}
        #: ring-layer attacks by ring-owner node -> active modes
        self._ring_modes: dict[int, list[str]] = {}
        self._armed: set = set()
        self._fork_targets: dict[int, frozenset] = {}
        self._claimed_terms: set = set()
        self._snapshots: dict[str, dict[int, Any]] = {}
        # Reentrancy guard: while the injector re-issues transformed
        # sends, the hook must pass them through untouched.
        self._in_send = False

    # ------------------------------------------------------------------- arm

    def arm(self, mode: str, node: int) -> None:
        """Activate ``mode`` with node ``node`` as the attacker
        (idempotent per (mode, node)).  Scheduled runs arm through
        :func:`repro.sim.failure.arm_faults`."""
        if mode not in BYZ_MODES:
            raise ValueError(f"unknown byz mode {mode!r}; pick from {BYZ_MODES}")
        if (mode, node) in self._armed:
            return
        self._armed.add((mode, node))
        if mode in ("equivocate", "tamper", "duplicate"):
            self._net_modes.setdefault(node, []).append(mode)
            if mode == "equivocate":
                peers = sorted(p for p in self.system.node_ids if p != node)
                self._fork_targets[node] = frozenset(peers[::2])
                self._claim_leadership(node)
        elif mode in ("corrupt_ring", "dup_ring"):
            self._ring_modes.setdefault(node, []).append(mode)
        elif mode == "replay_sst":
            armed_any = False
            for sst in self._ssts():
                # Stale snapshot of every *peer* row as the attacker
                # currently sees them.  Its own row is excluded: the
                # owner re-pushing an old own-row value is
                # indistinguishable from a slow node and absorbed by
                # last-writer-wins overwrite semantics (§3.2).
                self._snapshots[sst.name] = {
                    row: value for row, value in sst.copies[node].items()
                    if row != node}
                self._watch_sst(sst)
                armed_any = True
            if armed_any:
                self.engine.schedule(self.PUMP_PERIOD_NS, self._pump_replay,
                                     node, self.PUMPS)
        elif mode == "inflate":
            if getattr(self.system, "accept_sst", None) is not None:
                for sst in self._ssts():
                    self._watch_sst(sst)
                self.engine.schedule(self.PUMP_PERIOD_NS, self._pump_inflate,
                                     node, self.PUMPS)
            elif type(self.system).name == "dolev":
                self.engine.schedule(self.PUMP_PERIOD_NS,
                                     self._pump_dolev_inflate, node, self.PUMPS)
            # other backends expose no vector surface: attempts stay 0
            # and the matrix reports the mode as not applicable.

    def _ssts(self) -> list:
        return [sst for sst in (getattr(self.system, a, None) for a in
                                ("accept_sst", "vote_sst", "commit_sst"))
                if sst is not None]

    def _watch_sst(self, sst: Any) -> None:
        """Feed row overwrites to the probe while armed (the hook stays
        None — and the apply fast path untouched — on every unobserved
        or un-attacked run)."""
        if self.engine.probe is not None and sst._mon_hook is None:
            sst._mon_hook = self._sst_watch

    def _sst_watch(self, sst: Any, holder: int, row: int,
                   old: Any, new: Any) -> None:
        probe = self.engine.probe
        if probe is not None:
            probe.note(self.system, "sst_row", holder, slot=new,
                       key=sst.name, seq=row, extra=old)

    # ----------------------------------------------------- leadership claims

    def _claim_leadership(self, attacker: int) -> None:
        """Equivocation's control-plane half: announce the attacker as
        leader of the *current* term — a direct conflict with the real
        leader's claim.

        On a protected SST deployment the announcement is inert:
        leadership is established through vote-SST rows only their
        owners can write, so no honest node ever observes the forged
        claim (counted ``blocked``).  On message-passing backends the
        claim reaches the peers and the ``single_leader_per_term``
        monitor is the oracle that must catch it.  Leaderless backends
        (Dolev/Bracha) expose no term to forge.
        """
        term = self._current_term()
        if term is None:
            return
        self.attempts["equivocate"] += 1
        vote = getattr(self.system, "vote_sst", None)
        if vote is not None and vote.protected:
            self.blocked["equivocate"] += 1
            return
        self.landed["equivocate"] += 1
        probe = self.engine.probe
        if probe is not None and term not in self._claimed_terms:
            self._claimed_terms.add(term)
            probe.note(self.system, "leader", attacker, term=term)

    def _current_term(self) -> Any:
        sys = self.system
        ldr = sys.leader_id()
        nodes = getattr(sys, "nodes", None)
        if ldr is None or not isinstance(nodes, dict):
            return None
        nd = nodes.get(ldr)
        for attr in ("E_cur", "epoch", "term", "ballot"):
            v = getattr(nd, attr, None)
            if v:
                return v
        return None

    # -------------------------------------------------- substrate-layer hook

    def on_net_send(self, net: Any, src: int, dst: int, payload: Any,
                    size_bytes: int) -> bool:
        """Substrate interception point (TCP send / RDMA message send).

        Returns False to pass the send through untouched (the hot path:
        non-attacker senders miss the mode dict).  Otherwise re-issues
        the payloads to send *instead* through ``net.send`` — each pays
        the full per-message substrate costs, exactly as a real
        duplicated/forged packet would, and the reentrancy guard lets
        them through — and returns True: the send is handled.
        """
        if self._in_send:
            return False
        modes = self._net_modes.get(src)
        if modes is None:
            return False
        out: Optional[list] = None
        for mode in modes:
            if mode == "tamper":
                forged, hits = _rewrite(payload, _client_leaf, _forge)
                if hits:
                    self.attempts["tamper"] += 1
                    self.landed["tamper"] += 1
                    out = [forged]
            elif mode == "equivocate":
                if dst in self._fork_targets.get(src, ()):
                    forged, hits = _rewrite(payload, _client_leaf, _forge)
                    if hits:
                        self.attempts["equivocate"] += 1
                        self.landed["equivocate"] += 1
                        out = [forged]
            elif mode == "duplicate":
                self.attempts["duplicate"] += 1
                self.landed["duplicate"] += 1
                cur = out if out is not None else [payload]
                out = cur + cur
        if out is None:
            return False
        self._in_send = True
        try:
            for pl in out:
                net.send(src, dst, pl, size_bytes)
        finally:
            self._in_send = False
        return True

    # ------------------------------------------------------- ring-layer hook

    def on_ring_write(self, ring: Any, seq: int, receiver: int,
                      payload: Any) -> "Optional[list]":
        """Ring-buffer interception point, called per remote receiver.

        Returns None (write the real payload) or the list of payloads
        to post into this receiver's slot ``seq`` instead.  The ring
        owner's *local* mirror is never intercepted: the attacker keeps
        the honest copy, which is what makes the divergence observable.
        """
        modes = self._ring_modes.get(ring.sender)
        if modes is None:
            return None
        out: Optional[list] = None
        for mode in modes:
            if mode == "corrupt_ring":
                # A *different* forged payload per receiver: the RDMA
                # equivalent of equivocation, one slot, many truths.
                forged, hits = _rewrite(
                    payload, _client_leaf,
                    lambda leaf: ("byz", seq, receiver) + leaf)
                if hits:
                    self.attempts["corrupt_ring"] += 1
                    self.landed["corrupt_ring"] += 1
                    out = [forged]
            elif mode == "dup_ring":
                if receiver == self._dup_victim(ring):
                    forged, hits = _rewrite(payload, _client_leaf, _forge)
                    if hits:
                        self.attempts["dup_ring"] += 1
                        self.landed["dup_ring"] += 1
                        cur = out if out is not None else [payload]
                        out = cur + [forged]
        return out

    def _dup_victim(self, ring: Any) -> int:
        """The deterministic victim of duplicated slot writes: the
        lowest-id remote receiver."""
        return min((r for r in ring._receivers if r != ring.sender),
                   default=-1)

    # ----------------------------------------------------------- attack pumps

    def _pump_replay(self, attacker: int, remaining: int) -> None:
        """Replay the armed-time stale SST snapshot into every peer's
        copy — blocked row by row wherever the protection domain holds
        (a non-owner cannot write a remote row it was never granted)."""
        for sst in self._ssts():
            stale = self._snapshots.get(sst.name)
            if not stale:
                continue
            for holder in sst.members:
                if holder == attacker:
                    continue
                for row, value in stale.items():
                    self.attempts["replay_sst"] += 1
                    if sst.remote_write_row(attacker, holder, row, value):
                        self.landed["replay_sst"] += 1
                    else:
                        self.blocked["replay_sst"] += 1
        if remaining > 1:
            self.engine.schedule(self.PUMP_PERIOD_NS, self._pump_replay,
                                 attacker, remaining - 1)

    def _pump_inflate(self, attacker: int, remaining: int) -> None:
        """Forge the other followers' rows in the *leader's* accept-SST
        copy so its quorum scan sees a fake full accept vector and
        commits without real acceptance — the attack the protection
        domain argument squarely covers (every forged row is a remote
        row the attacker does not own)."""
        from repro.core.types import MsgHdr

        sys = self.system
        sst = sys.accept_sst
        ldr = sys.leader_id()
        nd = getattr(sys, "nodes", {}).get(attacker)
        e = getattr(nd, "E_cur", None)
        if ldr is not None and ldr != attacker and e is not None:
            forged = MsgHdr(e, self.INFLATED_CNT)
            for row in sst.members:
                if row == attacker or row == ldr:
                    continue
                self.attempts["inflate"] += 1
                if sst.remote_write_row(attacker, ldr, row, forged):
                    self.landed["inflate"] += 1
                else:
                    self.blocked["inflate"] += 1
        if remaining > 1:
            self.engine.schedule(self.PUMP_PERIOD_NS, self._pump_inflate,
                                 attacker, remaining - 1)

    def _pump_dolev_inflate(self, attacker: int, remaining: int) -> None:
        """Dolev's quorum analogue is the node-disjoint path vector:
        flood forged relays claiming fabricated paths for a forged
        value.  A correct receiver folds the transport-level sender
        into every path, so the attacker taints each one and the
        disjointness test starves — the attack should be absorbed."""
        sys = self.system
        nd = sys.nodes.get(attacker)
        slot = getattr(nd, "latest_slot", lambda: None)()
        if slot is not None:
            forged_value = ("byz", slot)
            others = [p for p in sys.node_ids if p != attacker]
            self._in_send = True
            try:
                for victim in others:
                    for fake in others:
                        if fake == victim:
                            continue
                        self.attempts["inflate"] += 1
                        self.landed["inflate"] += 1
                        sys.net.send(attacker, victim,
                                     ("MSG", slot, forged_value, 8, (fake,)),
                                     24)
            finally:
                self._in_send = False
        if remaining > 1:
            self.engine.schedule(self.PUMP_PERIOD_NS, self._pump_dolev_inflate,
                                 attacker, remaining - 1)

    # ------------------------------------------------------------- reporting

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-mode attempt/landed/blocked counters (modes with zero
        attempts had no applicable surface on this system)."""
        return {"attempts": dict(self.attempts),
                "landed": dict(self.landed),
                "blocked": dict(self.blocked)}

