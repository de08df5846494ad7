"""N independent consensus groups behind one key-partitioned router.

A :class:`ShardedDeployment` instantiates ``shards`` independent
Acuerdo/Raft/Zab/... groups inside one :class:`~repro.sim.engine.Engine`
and fronts them with a :class:`~repro.shard.router.ShardRouter`: every
submitted payload names a key, the key hashes to its home group, and
that group runs the ordinary single-group protocol.  Groups share
nothing but the engine — each builds its own substrate, and each is
constructed inside ``engine.scoped(g)`` so its RNG streams, process
names and span labels live under the ``shard.<g>.*`` hierarchy.

Two determinism properties hold by construction:

- **1-shard transparency** — with ``shards=1`` no scope is entered, the
  single group is built exactly as :func:`~repro.harness.factory.
  build_from_spec` builds it standalone, and routing adds only
  host-side bookkeeping; the trace fingerprint is bit-identical to the
  equivalent plain run (property-tested for acuerdo/raft/zab).
- **stable placement** — the router's key hash is independent of
  ``PYTHONHASHSEED`` and of the worker process, so sweeps fanned over
  ``REPRO_WORKERS`` route identically to sequential runs.
"""

from __future__ import annotations

from array import array
from contextlib import nullcontext
from typing import Any, Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.protocols.base import BroadcastSystem, CommitCallback
from repro.shard.router import ShardRouter
from repro.sim.engine import Engine
from repro.sim.failure import FailureInjector
from repro.sim.process import Process


def default_key_of(payload: Any) -> Any:
    """Extract the routing key from a payload.

    Keyed open-loop payloads are ``("ol", i, key)`` tuples — the third
    element is the key.  Anything else routes on the payload itself,
    so unkeyed workloads still spread deterministically.
    """
    if isinstance(payload, tuple) and len(payload) >= 3:
        return payload[2]
    return payload


class ShardedDeployment:
    """``shards`` single-group deployments plus routing and aggregation.

    Implements the client-facing slice of the
    :class:`~repro.protocols.base.BroadcastSystem` surface (``engine``,
    ``submit``, ``processes``) so the workload clients drive it
    unmodified; per-group inspection goes through :attr:`groups`.

    ``group_config`` optionally supplies per-group constructor kwargs:
    a dict applies to every group, a callable ``g -> dict`` is invoked
    per group index (e.g. to widen heartbeat periods so idle shards
    park between arrivals).
    """

    def __init__(self, engine: Engine, system: str = "acuerdo", shards: int = 1,
                 n: int = 3, record_deliveries: bool = False,
                 key_of: Optional[Callable[[Any], Any]] = None,
                 group_config: "dict | Callable[[int], dict] | None" = None,
                 group_range: "tuple[int, int] | None" = None):
        from repro.harness.factory import build_from_spec
        from repro.harness.runspec import RunSpec

        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        lo, hi = (0, shards) if group_range is None else group_range
        if not (0 <= lo < hi <= shards):
            raise ValueError(
                f"group_range must be a half-open slice of 0..{shards}, "
                f"got {group_range!r}")
        self.engine = engine
        self.system_name = system
        self.shards = shards
        self.n = n
        self.group_range = (lo, hi)
        self.router = ShardRouter(shards)
        self.key_of = key_of or default_key_of
        # Slot g is None outside group_range: those groups live in other
        # workers' slices (repro.shard.parallel) and keys routed there
        # are counted as `foreign`, not submitted.  The router always
        # hashes over the FULL shard count, so placement is identical
        # whether a deployment holds all groups or a slice of them.
        self.groups: list[Optional[BroadcastSystem]] = [None] * shards
        group_spec = RunSpec(system=system, n=n)
        for g in range(lo, hi):
            kwargs = (group_config(g) if callable(group_config)
                      else dict(group_config or {}))
            # One shard stays in the flat identity space: bit-identical
            # to the plain single-group run (see module docstring).
            scope = engine.scoped(g) if shards > 1 else nullcontext()
            with scope:
                self.groups[g] = build_from_spec(
                    group_spec, engine, record_deliveries=record_deliveries,
                    **kwargs)
        # Per-shard aggregation (host-side only; no engine events).
        self.submitted = [0] * shards
        self.committed = [0] * shards
        self.dropped = [0] * shards
        self.latencies_ns: list[array] = [array("q") for _ in range(shards)]
        #: Keys whose home group lies outside this slice's group_range
        #: (always 0 on a full deployment).
        self.foreign = 0

    def group_ids(self) -> range:
        """The original group indices this deployment instance holds."""
        return range(*self.group_range)

    def local_groups(self) -> "list[tuple[int, BroadcastSystem]]":
        return [(g, self.groups[g]) for g in self.group_ids()]

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Start every group without waiting for leaders; most callers
        want :meth:`settle` (which starts and settles) instead."""
        for _g, group in self.local_groups():
            group.start()

    def settle(self, preseed: bool = True) -> None:
        """Start every group and bring it to a serving state (see
        :func:`~repro.harness.factory.settle` — do not call
        :meth:`start` first); groups settle in index order, sharing the
        engine clock."""
        from repro.harness.factory import settle

        for _g, group in self.local_groups():
            settle(group, preseed=preseed)

    # ---------------------------------------------------------------- client

    def shard_of(self, key: Any) -> int:
        return self.router.shard_of(key)

    def submit(self, payload: Any, size_bytes: int,
               on_commit: Optional[CommitCallback] = None) -> bool:
        """Route ``payload`` by its key (via ``key_of``) and submit it to
        the home group.  Returns False when that group has no leader."""
        return self.submit_keyed(self.key_of(payload), payload, size_bytes,
                                 on_commit)

    def submit_keyed(self, key: Any, payload: Any, size_bytes: int,
                     on_commit: Optional[CommitCallback] = None) -> bool:
        g = self.router.shard_of(key)
        if self.groups[g] is None:
            # The key's home group lives in another worker's slice.  The
            # key and its arrival gap were still drawn — keeping every
            # RNG stream identical to the full-farm run — but the submit
            # is someone else's; report success so open-loop clients
            # account nothing locally.
            self.foreign += 1
            return True
        self.submitted[g] += 1
        t0 = self.engine.now

        def _done(x: Any) -> None:
            self.committed[g] += 1
            self.latencies_ns[g].append(self.engine.now - t0)
            if on_commit is not None:
                on_commit(x)

        ok = self.groups[g].submit(payload, size_bytes, _done)
        if not ok:
            self.dropped[g] += 1
        return ok

    # --------------------------------------------------------------- failure

    def processes(self) -> list[Process]:
        """Every replica process across all groups (group-tagged, so a
        :class:`~repro.sim.failure.FailureInjector` accepts ``(group,
        node)`` addresses)."""
        return [p for _g, group in self.local_groups()
                for p in group.processes()]

    def injector(self) -> FailureInjector:
        """A failure injector spanning every group's processes."""
        return FailureInjector(self.engine, self.processes())

    def leader_of(self, group: int) -> Optional[int]:
        return self.groups[group].leader_id()

    # ------------------------------------------------------------ aggregates

    def total_committed(self) -> int:
        return sum(self.committed)

    def total_submitted(self) -> int:
        return sum(self.submitted)

    def all_latencies_ns(self) -> list[int]:
        """Commit latencies across all shards, in commit order per shard."""
        return [lat for per_shard in self.latencies_ns for lat in per_shard]

    def shard_fingerprints(self, violations: "tuple | list" = ()) -> "dict[int, str]":
        """Digest each local group's observable state: sorted substrate
        counters, submit/commit/drop counts, the exact latency sequence,
        the leader id, and the group's monitor-violation count (pass the
        run's :class:`~repro.monitors.registry.Violation` list).

        Tracer counters are deliberately excluded — they are globally
        named (``acuerdo.deliver``), not shard-scoped — so this is the
        per-group equivalence oracle for ``repro.shard.parallel``: a
        slice worker and the serial farm must produce bit-identical
        digests for every group the slice owns.
        """
        import hashlib

        vio_by_group: dict[Optional[int], int] = {}
        for v in violations:
            g = getattr(v, "group", None)
            vio_by_group[g] = vio_by_group.get(g, 0) + 1
        out = {}
        for g, group in self.local_groups():
            payload = repr((
                sorted(group.substrate_counters().items()),
                self.submitted[g], self.committed[g], self.dropped[g],
                tuple(self.latencies_ns[g]),
                group.leader_id(),
                vio_by_group.get(g, 0),
            ))
            out[g] = hashlib.sha256(payload.encode()).hexdigest()[:16]
        return out

    def metrics(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Per-shard and aggregate metrics under ``shard.<g>.*`` /
        ``shard.total.*`` (substrate counters re-namespaced per group)."""
        reg = registry if registry is not None else MetricsRegistry()
        for g, group in self.local_groups():
            prefix = f"shard.{g}"
            reg.record(f"{prefix}.submitted", self.submitted[g])
            reg.record(f"{prefix}.committed", self.committed[g])
            reg.record(f"{prefix}.dropped", self.dropped[g])
            lats = self.latencies_ns[g]
            if lats:
                reg.record(f"{prefix}.mean_latency_ns", sum(lats) / len(lats))
            reg.ingest_namespaced(prefix, group.substrate_counters())
        reg.record("shard.count", self.shards)
        reg.record("shard.total.submitted", self.total_submitted())
        reg.record("shard.total.committed", self.total_committed())
        reg.record("shard.total.dropped", sum(self.dropped))
        if self.foreign:
            reg.record("shard.foreign", self.foreign)
        return reg

