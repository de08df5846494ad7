"""Failure injection for robustness tests and fail-over experiments.

Supports the failure classes the paper's evaluation exercises:

- **crash-stop** (Table 1: the leader is killed) —
  :meth:`FailureInjector.crash_at`;
- **slow node** (§4.1/§4.2 "long-latency nodes") — :meth:`slow_node`;
- **transient deschedules** (scheduler hiccups that receiver-side
  batching absorbs, or the paper's 5 s leader sleep) —
  :meth:`deschedule_at`;
- **network partitions** (substrate-level connectivity groups with an
  optional heal time) — ``RunSpec.partitions`` entries, armed by
  :func:`arm_faults` as ``set_partition`` / ``heal_partition`` calls;
- **Byzantine misbehaviour** (lying, forging, replaying — the *beyond
  crash-stop* model) lives in :mod:`repro.sim.byzantine`.

A run's crash, partition and Byzantine *schedules* (``RunSpec.crashes``
/ ``.partitions`` / ``.byz``, the ``--crash`` / ``--partition`` /
``--byz`` flags) are parsed once, into a :class:`FaultPlan` of typed
``(group, node)``-addressed entries that is validated against the
deployment's ``shards`` and ``n`` when the spec is built, and armed by
one function, :func:`arm_faults`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.sim.byzantine import BYZ_MODES, ByzantineInjector, parse_byz
from repro.sim.engine import Engine, ms
from repro.sim.process import Process

#: Ways to name a process: the Process itself, a plain node id (int,
#: unambiguous only while one group owns the id), a hierarchical
#: ``(group, node_id)`` address for sharded deployments, or the string
#: spellings of those two (``"1"`` / ``"3:1"``) accepted everywhere an
#: address crosses a text boundary (CLI flags, RunSpec crash schedules).
Addr = Union[Process, int, "tuple[int, int]", str]


def parse_addr(text: "Addr") -> "int | tuple[int, int]":
    """The one address parser: ``"1"`` -> ``1``, ``"3:1"`` -> ``(3, 1)``.

    Already-parsed forms (ints, ``(group, node)`` tuples) pass through,
    so every helper that accepts an :data:`Addr` can normalise through
    this without caring how the caller spelled it.
    """
    if isinstance(text, int):
        return text
    if isinstance(text, tuple):
        if len(text) == 2 and all(isinstance(x, int) for x in text):
            return text
        raise ValueError(f"tuple address must be (group, node_id), got {text!r}")
    if isinstance(text, str):
        parts = text.split(":")
        try:
            if len(parts) == 1:
                return int(parts[0])
            if len(parts) == 2:
                return (int(parts[0]), int(parts[1]))
        except ValueError:
            pass
    raise ValueError(
        f"cannot parse address {text!r}; use 'node' or 'group:node' "
        f"(e.g. '1' or '3:1')")


def format_addr(addr: "Addr") -> str:
    """Inverse of :func:`parse_addr`: ``1`` -> ``"1"``, ``(3, 1)`` ->
    ``"3:1"``.  Processes format via their own :attr:`addr`."""
    if isinstance(addr, Process):
        addr = addr.addr
    addr = parse_addr(addr)
    if isinstance(addr, tuple):
        return f"{addr[0]}:{addr[1]}"
    return str(addr)


def parse_crash(text: str) -> "tuple[int | tuple[int, int], float]":
    """Parse one crash-schedule entry ``"<addr>@<ms>"`` into
    ``(address, time_ms)`` — e.g. ``"0@5"`` (node 0 at 5 ms) or
    ``"3:1@2.5"`` (group 3's node 1 at 2.5 ms)."""
    addr_part, sep, when = text.partition("@")
    if not sep:
        raise ValueError(
            f"cannot parse crash {text!r}; use 'node@ms' or "
            f"'group:node@ms' (e.g. '0@5' or '3:1@2.5')")
    try:
        at_ms = float(when)
    except ValueError:
        raise ValueError(f"bad crash time in {text!r}: {when!r} is not a "
                         f"number of milliseconds") from None
    if at_ms < 0:
        raise ValueError(f"crash time must be >= 0 ms, got {text!r}")
    return parse_addr(addr_part), at_ms


def parse_partition(
        text: str,
) -> "tuple[tuple[tuple, ...], float, float | None]":
    """Parse one partition-schedule entry ``"GROUPS@MS"`` or
    ``"GROUPS@MS-MS"`` into ``(groups, start_ms, end_ms_or_None)``.

    ``GROUPS`` is ``|``-separated connectivity groups of comma-separated
    node ids — e.g. ``"0,1|2@5"`` (cut node 2 off from {0, 1} at 5 ms,
    never heal) or ``"0,1|2@5-20"`` (same cut, healed at 20 ms).  On a
    sharded farm, members use the hierarchical ``g:n`` spelling
    (``"2:0,2:1|2:2@5"`` cuts shard 2's node 2 off); all members of one
    entry must then name the same shard — a partition cuts one group's
    substrate, validated by :meth:`FaultPlan.parse`.
    """
    groups_part, sep, when = text.rpartition("@")
    if not sep or not groups_part:
        raise ValueError(
            f"cannot parse partition {text!r}; use 'GROUPS@MS' or "
            f"'GROUPS@MS-MS' (e.g. '0,1|2@5' or '0,1|2@5-20')")
    start_s, sep, end_s = when.partition("-")
    try:
        start_ms = float(start_s)
        end_ms = float(end_s) if sep else None
    except ValueError:
        raise ValueError(f"bad partition time in {text!r}: {when!r} is not "
                         f"'MS' or 'MS-MS'") from None
    if start_ms < 0 or (end_ms is not None and end_ms < start_ms):
        raise ValueError(
            f"partition window must satisfy 0 <= start <= end, got {text!r}")
    groups = []
    for grp in groups_part.split("|"):
        members = []
        for part in grp.split(","):
            part = part.strip()
            try:
                members.append(parse_addr(part))
            except ValueError:
                raise ValueError(
                    f"bad node id {part!r} in partition {text!r}; groups "
                    f"are comma-separated node ids ('1') or shard-scoped "
                    f"'g:n' addresses split by '|'") from None
        if not members:
            raise ValueError(f"empty connectivity group in partition {text!r}")
        groups.append(tuple(members))
    return tuple(groups), start_ms, end_ms


@dataclass(frozen=True)
class CrashEntry:
    """Crash-stop node ``node`` of consensus group ``group``
    ``at_ms`` milliseconds after workload start."""

    group: int
    node: int
    at_ms: float


@dataclass(frozen=True)
class PartitionEntry:
    """Cut group ``group``'s substrate into the connectivity ``sides``
    (bare node ids) at ``start_ms``; heal it at ``end_ms`` (None:
    never)."""

    group: int
    sides: "tuple[tuple[int, ...], ...]"
    start_ms: float
    end_ms: Optional[float]


@dataclass(frozen=True)
class ByzEntry:
    """Arm attack ``mode`` on node ``node`` of group ``group`` at
    ``at_ms`` (see :data:`~repro.sim.byzantine.BYZ_MODES`)."""

    mode: str
    group: int
    node: int
    at_ms: float


@dataclass(frozen=True)
class FaultPlan:
    """A run's crash, partition and Byzantine schedules, parsed once.

    Every entry names an explicit group and a bare node id, both checked
    against the deployment by :meth:`parse`, so any plan that exists can
    be armed by :func:`arm_faults`.  An empty plan arms nothing.
    """

    crashes: "tuple[CrashEntry, ...]" = ()
    partitions: "tuple[PartitionEntry, ...]" = ()
    byz: "tuple[ByzEntry, ...]" = ()

    @classmethod
    def parse(cls, crashes: Iterable[str] = (),
              partitions: Iterable[str] = (), byz: Iterable[str] = (),
              *, shards: int = 1, n: int = 3) -> "FaultPlan":
        """Parse the ``RunSpec`` schedule strings and validate them
        against a deployment of ``shards`` groups of ``n`` nodes.

        Raises ``ValueError`` when an entry is malformed, names a group
        or node the deployment does not have, uses a bare node id that
        would be ambiguous across groups, spans several groups in one
        partition cut, cuts one group in intersecting windows (a shared
        instant counts; an open-ended one never ends), or requests a
        Byzantine attack on a farm — when the spec is built, instead of
        failing mid-run (or, worse, silently never firing).  On a
        1-shard deployment ``n`` and ``0:n`` both name node ``n`` of
        group 0.
        """
        valid = (f"valid groups are 0..{shards - 1}" if shards > 1
                 else "a 1-shard deployment only has group 0")

        def check_group(entry: str, what: str, g: int) -> int:
            if not 0 <= g < shards:
                raise ValueError(
                    f"{what} schedule {entry!r} names group {g}, but the "
                    f"deployment has {shards} shard(s); {valid}")
            return g

        def check_node(entry: str, what: str, node: int) -> int:
            if not 0 <= node < n:
                raise ValueError(
                    f"{what} schedule {entry!r} names node {node}, but a "
                    f"group has {n} node(s); valid node ids are "
                    f"0..{n - 1}")
            return node

        def split(addr: "int | tuple[int, int]") -> "tuple[int, int]":
            return addr if isinstance(addr, tuple) else (0, addr)

        crash_entries = []
        for entry in crashes:
            addr, at_ms = parse_crash(entry)
            if shards > 1 and not isinstance(addr, tuple):
                raise ValueError(
                    f"crash schedule {entry!r} uses a bare node id, which is "
                    f"ambiguous across {shards} groups; address it as "
                    f"'group:node@ms' ({valid})")
            g, node = split(addr)
            crash_entries.append(CrashEntry(check_group(entry, "crash", g),
                                            check_node(entry, "crash", node),
                                            at_ms))
        partition_entries, windows = [], []
        for entry in partitions:
            sides, start_ms, end_ms = parse_partition(entry)
            members = [m for side in sides for m in side]
            scoped = [check_group(entry, "partition", g) for g in
                      sorted({m[0] for m in members if isinstance(m, tuple)})]
            if shards > 1:
                if any(not isinstance(m, tuple) for m in members):
                    raise ValueError(
                        f"partition schedule {entry!r} uses bare node ids, "
                        f"which are ambiguous across {shards} groups; spell "
                        f"members as 'g:n' ({valid})")
                if len(scoped) > 1:
                    raise ValueError(
                        f"partition schedule {entry!r} spans groups {scoped}; "
                        f"a partition cuts one group's substrate at a time — "
                        f"use one entry per group")
            group = scoped[0] if scoped else 0
            end = float("inf") if end_ms is None else end_ms
            for other, g, lo, hi in windows:
                if g == group and lo <= end and start_ms <= hi:
                    raise ValueError(
                        f"partition schedules {other!r} and {entry!r} cut "
                        f"group {group} in windows that intersect; the later "
                        f"cut would replace the earlier, one heal end both")
            windows.append((entry, group, start_ms, end))
            partition_entries.append(PartitionEntry(
                group,
                tuple(tuple(check_node(entry, "partition", split(m)[1])
                            for m in side) for side in sides),
                start_ms, end_ms))
        byz_entries = []
        for entry in byz:
            mode, addr, at_ms = parse_byz(entry)
            if shards > 1:
                raise ValueError(
                    f"byz schedule {entry!r}: Byzantine attacks are not "
                    f"supported on multi-group farms yet (shards={shards}); "
                    f"run the attack against a single group (shards=1) or "
                    f"use 'repro shootout --byz'")
            g, node = split(addr)
            byz_entries.append(ByzEntry(mode, check_group(entry, "byz", g),
                                        check_node(entry, "byz", node), at_ms))
        return cls(tuple(crash_entries), tuple(partition_entries),
                   tuple(byz_entries))


def arm_faults(engine: Engine, plan: FaultPlan,
               groups: "Mapping[int, Any]") -> None:
    """Schedule ``plan`` against ``groups`` (group index ->
    :class:`~repro.protocols.base.BroadcastSystem`), ``@ms`` counting
    from now — the drivers call this right after settle, so from
    workload start.

    Entries whose group is not in ``groups`` belong to another slice of
    the farm and are skipped.  Crashes, then partitions, then Byzantine
    attacks are scheduled, each in entry order: that order is the heap's
    tie-break, so same-instant faults replay exactly.  A plan with no
    local Byzantine entry attaches no injector, so a fault-free run
    stays bit-identical to the golden fingerprints.
    """
    t0 = engine.now
    for c in plan.crashes:
        if c.group in groups:
            engine.schedule_at(t0 + ms(c.at_ms),
                               groups[c.group].nodes[c.node].crash)
    for p in plan.partitions:
        if p.group in groups:
            substrate = groups[p.group].substrate
            engine.schedule_at(t0 + ms(p.start_ms), substrate.set_partition,
                               *p.sides)
            if p.end_ms is not None:
                engine.schedule_at(t0 + ms(p.end_ms), substrate.heal_partition)
    attacks = [b for b in plan.byz if b.group in groups]
    if attacks:
        # FaultPlan.parse keeps Byzantine entries to one-group runs.
        byz = ByzantineInjector(engine, groups[attacks[0].group])
        for b in attacks:
            engine.schedule_at(t0 + ms(b.at_ms), byz.arm, b.mode, b.node)


class FailureInjector:
    """Schedules failures against a set of processes.

    Every method accepts the :class:`~repro.sim.process.Process` itself,
    a plain node id (int), or — once several consensus groups share one
    engine — a hierarchical ``(group, node_id)`` address.  Lookup is a
    dict hit either way, so injecting into wide clusters costs the same
    as into ``n = 3``.

    Plain-int addressing keeps its historical meaning for single-group
    runs.  When two groups both own a node id (a sharded deployment),
    the bare int is *ambiguous* and raises with a pointer to the
    ``(group, node)`` form rather than silently picking a group.
    """

    def __init__(self, engine: Engine, processes: Sequence[Process]):
        self.engine = engine
        self.processes = list(processes)
        self._by_addr: dict[object, Process] = {}
        self._ambiguous: set[int] = set()
        for p in self.processes:
            group = getattr(p, "group", None)
            if group is not None:
                self._by_addr[(group, p.node_id)] = p
            nid = p.node_id
            if nid in self._ambiguous:
                continue
            prior = self._by_addr.get(nid)
            if prior is not None and prior is not p:
                # Two groups collide on this flat id: retire the bare
                # form instead of keying by whichever came last.
                del self._by_addr[nid]
                self._ambiguous.add(nid)
            else:
                self._by_addr[nid] = p

    def _proc(self, node: Addr) -> Process:
        if isinstance(node, Process):
            return node
        if isinstance(node, str):
            node = parse_addr(node)
        try:
            return self._by_addr[node]
        except (KeyError, TypeError):
            pass
        if isinstance(node, int) and node in self._ambiguous:
            groups = sorted(g for g, n in
                            ((getattr(p, "group", None), p.node_id)
                             for p in self.processes)
                            if n == node and g is not None)
            forms = ", ".join(f"({g}, {node}) / '{g}:{node}'" for g in groups)
            raise KeyError(
                f"node_id {node} is ambiguous across groups {groups}; "
                f"address it as (group, node_id) — one of {forms}")
        raise KeyError(f"no process with address {node!r}")

    def crash_at(self, time_ns: int, node: Addr) -> None:
        """Crash-stop ``node`` at absolute ``time_ns``."""
        self.engine.schedule_at(time_ns, self._proc(node).crash)

    def deschedule_at(self, time_ns: int, node: Addr, duration_ns: int) -> None:
        """Take ``node`` off-CPU for ``duration_ns`` starting at ``time_ns``."""
        self.engine.schedule_at(time_ns, self._proc(node).deschedule, duration_ns)

    def slow_node(self, node: Addr, speed_factor: float) -> None:
        """Make ``node`` a long-latency node from now on: every CPU cost
        and poll gap is multiplied by ``speed_factor``."""
        p = self._proc(node)
        # Ticks up to the pending poll were drawn at the old factor: a
        # parked loop replays them before the factor changes.
        p.request_poll()
        p.config.speed_factor = speed_factor
        p.cpu.speed_factor = speed_factor

    def alive(self) -> "list[int | tuple[int, int]]":
        """Addresses of processes that have not crashed: plain node ids
        in single-group runs, ``(group, node_id)`` in sharded ones."""
        return [p.addr for p in self.processes if not p.crashed]


__all__ = [
    "Addr", "FailureInjector", "parse_addr", "format_addr", "parse_crash",
    "parse_partition", "CrashEntry", "PartitionEntry", "ByzEntry",
    "FaultPlan", "arm_faults", "BYZ_MODES", "ByzantineInjector", "parse_byz",
]
