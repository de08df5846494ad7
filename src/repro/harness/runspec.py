"""RunSpec: the one description of a simulation run.

Historically every figure driver grew its own keyword pile
(``system_name, n, message_size, window, seed, ...``), and the CLI,
benchmarks and hostperf each re-spelled it.  :class:`RunSpec` collapses
them: one frozen dataclass names the run — which system, over which
backend, under what workload, for how long, from which seed — and every
harness entry point (:mod:`~repro.harness.fig8`,
:mod:`~repro.harness.fig9`, :mod:`~repro.harness.table1`,
:mod:`~repro.harness.hostperf`, ``repro`` CLI, ``repro trace``)
consumes it.

Frozen + hashable + picklable: a spec can key a result cache, travel
through the :mod:`~repro.harness.parallel` process pool, and be
serialised into ``BENCH_host_perf.json`` verbatim.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

if TYPE_CHECKING:
    from repro.sim.failure import FaultPlan

#: Workload models a spec can name.
WORKLOADS = ("closedloop", "openloop", "ycsb")


@dataclass(frozen=True)
class RunSpec:
    """Complete description of one simulation run.

    ``backend`` is normally derived from the system
    (:data:`~repro.harness.factory.SUBSTRATE_OF`); passing it explicitly
    is a consistency assertion, not a override — naming the wrong
    backend for a system raises at construction.
    """

    system: str = "acuerdo"
    backend: Optional[str] = None
    n: int = 3
    payload_bytes: int = 64
    window: int = 8
    workload: str = "closedloop"
    duration_ms: float = 400.0
    seed: int = 1
    workers: int = 1
    capture_spans: bool = False
    # Sharded-deployment extension (repro.shard); the defaults describe
    # a plain single-group run, so existing call sites are untouched.
    shards: int = 1
    users: int = 0
    skew: float = 0.0
    arrival_rate: float = 0.0
    # Runtime-safety extension (repro.monitors): evaluate the online
    # safety monitors during the run and surface violations in the
    # metrics / CLI exit code.
    check_invariants: bool = False
    #: Crash schedule: ``"node@ms"`` / ``"group:node@ms"`` entries.
    #: This and the two schedules below are parsed into :attr:`faults`
    #: and validated against ``n`` and ``shards`` when the spec is
    #: built, then armed relative to workload start by
    #: :func:`repro.harness.factory.prepare` (farms:
    #: :func:`repro.shard.parallel.prepare_farm`).
    crashes: "tuple[str, ...]" = ()
    #: Partition schedule: ``"GROUPS@MS"`` / ``"GROUPS@MS-MS"`` entries,
    #: each cutting one group's substrate.
    partitions: "tuple[str, ...]" = ()
    #: Byzantine attack schedule: ``"MODE:ADDR@MS"`` entries (single-
    #: group runs only).  Empty means no injector is attached at all, so
    #: the run stays bit-identical to the golden fingerprints.
    byz: "tuple[str, ...]" = ()

    def __post_init__(self) -> None:
        from repro.harness.factory import EXTENSION_SYSTEMS, SUBSTRATE_OF, SYSTEMS

        if self.system not in SYSTEMS + EXTENSION_SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; pick from "
                             f"{SYSTEMS + EXTENSION_SYSTEMS}")
        derived = SUBSTRATE_OF[self.system]
        if self.backend is not None and self.backend != derived:
            raise ValueError(f"system {self.system!r} runs over {derived!r}, "
                             f"not {self.backend!r}")
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}; pick from "
                             f"{WORKLOADS}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.payload_bytes < 1:
            raise ValueError(f"payload_bytes must be >= 1, got {self.payload_bytes}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.duration_ms <= 0:
            raise ValueError(f"duration_ms must be > 0, got {self.duration_ms}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.users < 0:
            raise ValueError(f"users must be >= 0, got {self.users}")
        if not 0.0 <= self.skew < 1.0:
            raise ValueError(f"skew must be in [0, 1), got {self.skew}")
        if self.arrival_rate < 0:
            raise ValueError(f"arrival_rate must be >= 0, got {self.arrival_rate}")
        # Normalise (lists arrive from from_dict / CLI argparse), then
        # parse and validate the fault plan now, so a bad entry fails at
        # spec construction, not mid-run.
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "byz", tuple(self.byz))
        self.faults

    @functools.cached_property
    def faults(self) -> "FaultPlan":
        """The crash / partition / byz schedules as one typed
        :class:`~repro.sim.failure.FaultPlan`, valid for this spec's
        ``shards`` and ``n``."""
        from repro.sim.failure import FaultPlan

        return FaultPlan.parse(self.crashes, self.partitions, self.byz,
                               shards=self.shards, n=self.n)

    # -------------------------------------------------------------- derived

    @property
    def resolved_backend(self) -> str:
        """The substrate backend this run deploys over."""
        if self.backend is not None:
            return self.backend
        from repro.harness.factory import SUBSTRATE_OF

        return SUBSTRATE_OF[self.system]

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy with the named fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------- builders

    def make_engine(self) -> Any:
        """A fresh :class:`~repro.sim.engine.Engine` for this run, with a
        :class:`~repro.obs.spans.SpanRecorder` subscribed to
        ``engine.probe`` when ``capture_spans`` is set and a
        :class:`~repro.monitors.MonitorRegistry` when
        ``check_invariants`` is set."""
        from repro.sim.engine import Engine

        engine = Engine(seed=self.seed)
        if self.capture_spans:
            from repro.obs.spans import SpanRecorder

            SpanRecorder(engine)
        if self.check_invariants:
            from repro.monitors import MonitorRegistry

            MonitorRegistry(engine)
        return engine

    # ---------------------------------------------------------------- (de)ser

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-serialisable form (used by hostperf's BENCH doc)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        return cls(**dict(data))
