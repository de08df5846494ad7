"""Monitor API: events, violations, the per-group registry.

The registry subscribes to the engine's one observation attachment,
``engine.probe``, next to the span recorder, and every emission site in
the simulator is gated by ``engine.probe is not None`` — a run with
nothing attached executes no monitor code at all, which is what keeps
the golden trace fingerprints bit-identical and the monitors-off
overhead at zero.

Event flow::

    hook site --> probe.note(system, kind, ...) --> MonitorRegistry
                                                      | per-group,
                                                      v per-kind demux
                                                 Monitor.on_mark

Normalized event vocabulary (the cross-protocol contract):

``leader``
    ``node`` claims *exclusive* leadership of ``term``.  Emitted by
    every backend with an exclusive-leader role (Acuerdo epoch rounds,
    Raft terms, Zab epochs, Paxos ballots, Mu/DARE terms, Derecho view
    coordinators); all-sender deployments (derecho-all) emit nothing.
``accept``
    ``node``'s *cumulative* accepted/durable frontier advanced to
    ``slot`` (it has accepted every slot up to and including it).
``accept_one``
    ``node`` accepted exactly ``slot`` with value identity ``key``
    (per-instance protocols: libpaxos, Derecho rounds).
``accept_trunc``
    ``node``'s cumulative frontier was *lowered* to ``slot`` (log
    truncation / state-transfer install of a shorter log).
``commit``
    ``node`` committed/decided ``slot`` (optionally with value
    identity ``key``).
``deliver``
    ``node`` delivered payload ``key`` to the application (emitted
    centrally by ``BroadcastSystem.record_delivery``).
``slot_bind``
    ring owner ``node`` occupied broadcast-ring sequence ``seq`` with
    the message of consensus slot ``slot`` (``extra`` = ring capacity;
    ``slot`` None for filler/null sends with no safety obligation).
``slot_release``
    ring owner ``node`` released every ring sequence below ``seq``.
``sst_row``
    row ``seq`` of SST ``key`` in holder ``node``'s copy was
    overwritten with ``slot`` (``extra`` = prior value).  Only emitted
    through the SST apply hook the Byzantine injector installs while an
    SST attack is armed — honest runs carry no ``sst_row`` traffic.

Slots only need to be *comparable and hashable within one protocol*
(Acuerdo ``MsgHdr``, integer log frontiers, Zab packed zxids); monitors
never compare slots across protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

_tuple_new = tuple.__new__


class MonitorEvent(NamedTuple):
    """One normalized protocol event (see module docstring)."""

    t: int                        # sim-ns
    group: Optional[int]          # consensus-group index (None: unsharded)
    protocol: str                 # system name ("acuerdo", "etcd", ...)
    kind: str                     # vocabulary entry ("leader", "accept", ...)
    node: int                     # emitting replica
    term: Any = None              # leadership term (kind == "leader")
    slot: Any = None              # consensus slot / log frontier
    key: Any = None               # value identity (payload object)
    seq: Any = None               # broadcast-ring sequence number
    extra: Any = None             # event-specific (slot_bind: ring capacity)


@dataclass(frozen=True)
class GroupContext:
    """What a monitor instance knows about its consensus group."""

    group: Optional[int]
    protocol: str
    n: int

    @property
    def quorum(self) -> int:
        """The majority floor ``n // 2 + 1`` — the weakest write quorum
        any of the nine backends relies on for safety, so it never
        false-positives on the stronger (all-replica) protocols."""
        return self.n // 2 + 1


@dataclass
class Violation:
    """One observed safety violation, with its witness events."""

    t: int                        # sim-ns at which the violation surfaced
    group: Optional[int]          # shard (consensus-group) index, if any
    protocol: str
    monitor: str                  # reporting monitor's name
    detail: str                   # human-readable statement
    witness: tuple = ()           # the MonitorEvents that prove it

    def __str__(self) -> str:
        where = f"shard {self.group} " if self.group is not None else ""
        return (f"[{self.monitor}] {where}{self.protocol} @ {self.t} ns: "
                f"{self.detail}")


class Monitor:
    """Base class for online safety monitors.

    Subclasses implement :meth:`on_mark` (normalized protocol events)
    and/or :meth:`on_finish` (end-of-run checks), and call
    :meth:`report` when an invariant breaks.  One instance exists per
    (monitor class, consensus group) pair.
    """

    #: metrics/violation namespace; subclasses override.
    name = "monitor"

    #: Event kinds this monitor's :meth:`on_mark` consumes, or ``None``
    #: for every kind.  The registry dispatches per kind, so an event
    #: only ever reaches monitors that subscribe to it — this is what
    #: keeps the monitors-on overhead low on accept/commit-heavy runs.
    KINDS: Optional[frozenset] = None

    def __init__(self, registry: "MonitorRegistry", ctx: GroupContext):
        self.registry = registry
        self.ctx = ctx
        self.violations: list[Violation] = []

    # ------------------------------------------------------------- callbacks

    def bind_group(self, monitors: list["Monitor"]) -> None:
        """Called once with the group's full monitor list (after every
        instance exists); lets a monitor share state with a sibling."""

    def on_mark(self, ev: MonitorEvent) -> None:
        """One normalized protocol event for this monitor's group."""

    def on_finish(self) -> None:
        """End of run (registry ``finish()``): check closing invariants."""

    # ------------------------------------------------------------- reporting

    def report(self, detail: str, witness: tuple = (),
               t: Optional[int] = None) -> Violation:
        v = Violation(t=self.registry.now if t is None else t,
                      group=self.ctx.group, protocol=self.ctx.protocol,
                      monitor=self.name, detail=detail,
                      witness=tuple(witness))
        self.violations.append(v)
        self.registry.violations.append(v)
        return v


class _Group:
    """Per-consensus-group monitor instances, with per-kind dispatch
    lists (built lazily: the kind vocabulary is tiny and fixed)."""

    __slots__ = ("ctx", "monitors", "handlers")

    def __init__(self, ctx: GroupContext, monitors: list[Monitor]):
        self.ctx = ctx
        self.monitors = monitors
        self.handlers: dict[str, list] = {}
        for m in monitors:
            m.bind_group(monitors)

    def handlers_for(self, kind: str) -> list:
        hs = [m.on_mark for m in self.monitors
              if m.KINDS is None or kind in m.KINDS]
        self.handlers[kind] = hs
        return hs


class MonitorRegistry:
    """Owns the monitor instances and demultiplexes the event stream.

    Attach with ``MonitorRegistry(engine)``, which subscribes it to
    ``engine.probe``; ``engine.probe = None`` detaches every observer.
    Each consensus group registers itself at construction
    (``BroadcastSystem.__init__``) and gets its own instance of every
    monitor class in ``factories`` — sharded deployments therefore
    monitor each shard independently, for free.
    """

    def __init__(self, engine: Any = None,
                 factories: Optional[list[Callable[..., Monitor]]] = None):
        self.engine = engine
        self.factories = list(DEFAULT_MONITORS if factories is None
                              else factories)
        self.groups: dict[Optional[int], _Group] = {}
        self.violations: list[Violation] = []
        self.events_seen = 0
        self._finished = False
        if engine is not None:
            engine.attach(registry=self)

    # ---------------------------------------------------------------- wiring

    @property
    def now(self) -> int:
        return self.engine.now if self.engine is not None else 0

    def register_group(self, system: Any) -> GroupContext:
        """Create this group's monitor instances (idempotent per group
        index).  ``system`` is the :class:`~repro.protocols.base.
        BroadcastSystem` under construction; the group handle is cached
        on it so :meth:`note` resolves it with one attribute load."""
        g = self._group(getattr(system, "group", None),
                        type(system).name, system.n)
        system._mon_group = (self, g)
        return g.ctx

    def _group(self, group: Optional[int], protocol: str, n: int) -> _Group:
        g = self.groups.get(group)
        if g is None:
            ctx = GroupContext(group=group, protocol=protocol, n=n)
            g = _Group(ctx, [make(self, ctx) for make in self.factories])
            self.groups[group] = g
        return g

    # ------------------------------------------------------------- ingestion

    def note(self, system: Any, kind: str, node: int, *, term: Any = None,
             slot: Any = None, key: Any = None, seq: Any = None,
             extra: Any = None) -> None:
        """Protocol-side emission helper: one normalized event from
        ``system``'s group at the current simulated time.  This is the
        hot path — one call per protocol safety event — so the group is
        resolved through an ``id(system)`` cache and the event object is
        only built when a monitor subscribes to its kind."""
        cached = getattr(system, "_mon_group", None)
        if cached is not None and cached[0] is self:
            g = cached[1]
        else:
            g = self._group(getattr(system, "group", None),
                            type(system).name, getattr(system, "n", 0))
            system._mon_group = (self, g)
        self.events_seen += 1
        handlers = g.handlers.get(kind)
        if handlers is None:
            handlers = g.handlers_for(kind)
        if not handlers:
            return
        # tuple.__new__ skips the namedtuple's Python-level __new__
        # (~2x cheaper; this runs tens of thousands of times per run).
        ev = _tuple_new(MonitorEvent,
                        (self.engine.now, g.ctx.group, g.ctx.protocol,
                         kind, node, term, slot, key, seq, extra))
        if len(handlers) == 1:
            handlers[0](ev)
        else:
            for h in handlers:
                h(ev)

    def ingest(self, group: Optional[int], protocol: str, n: int, kind: str,
               node: int, t: int, *, term: Any = None, slot: Any = None,
               key: Any = None, seq: Any = None, extra: Any = None) -> MonitorEvent:
        """Feed one event (also the fault-seeding entry point used by
        the monitor tests to forge adversarial histories)."""
        ev = MonitorEvent(t=t, group=group, protocol=protocol, kind=kind,
                          node=node, term=term, slot=slot, key=key, seq=seq,
                          extra=extra)
        self.events_seen += 1
        g = self._group(group, protocol, n)
        handlers = g.handlers.get(kind)
        if handlers is None:
            handlers = g.handlers_for(kind)
        for h in handlers:
            h(ev)
        return ev

    # ---------------------------------------------------------------- output

    def finish(self, metrics: Any = None) -> list[Violation]:
        """End-of-run hook: run every monitor's closing checks (once),
        fold ``monitor.<name>.violations`` counters into ``metrics``
        when given, and return all violations observed."""
        if not self._finished:
            self._finished = True
            for g in self.groups.values():
                for m in g.monitors:
                    m.on_finish()
        if metrics is not None:
            counts: dict[str, int] = {make.name: 0 for make in self.factories}
            for v in self.violations:
                counts[v.monitor] = counts.get(v.monitor, 0) + 1
            for name, count in sorted(counts.items()):
                metrics.record(f"monitor.{name}.violations", count)
            metrics.record("monitor.violations", len(self.violations))
            metrics.record("monitor.events", self.events_seen)
        return self.violations

    def check(self) -> None:
        """Raise ``AssertionError`` on any recorded violation."""
        self.finish()
        if self.violations:
            lines = "\n".join(str(v) for v in self.violations)
            raise AssertionError(
                f"{len(self.violations)} safety violation(s):\n{lines}")


def finish_monitors(engine: Any, metrics: Any = None) -> list[Violation]:
    """The end-of-run reader: :meth:`MonitorRegistry.finish` of the
    registry attached to ``engine``, or ``[]`` when none is."""
    registry = engine.monitors
    return registry.finish(metrics) if registry is not None else []


# Imported late to avoid a cycle (invariants imports Monitor from here).
from repro.monitors.invariants import (  # noqa: E402
    CommitQuorumAccept,
    LogPrefixAgreement,
    SingleLeaderPerTerm,
    SlotReuseSafety,
    SstMonotonic,
)

#: The monitors every ``--check-invariants`` run evaluates.
DEFAULT_MONITORS: tuple = (SingleLeaderPerTerm, LogPrefixAgreement,
                           CommitQuorumAccept, SlotReuseSafety,
                           SstMonotonic)
