"""The five benchmark workloads.

Each workload drives the repo's public API (``RunSpec``,
``build_from_spec``/``ShardedDeployment``, ``settle``, the workload
clients) for a **fixed simulated duration**, so for one seed the
committed-operation count and every simulated timestamp repeat exactly.
``fig8.point``'s adaptive chunking is deliberately not used: its
operation count depends on chunk quantisation.

Every workload keeps at least 10 000 committed operations per pass, so
the 99.9th percentile always has ten samples beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.harness.factory import build_from_spec, settle
from repro.harness.runspec import RunSpec
from repro.harness.shardsweep import farm_group_config
from repro.shard import ShardedDeployment, aggregate_client
from repro.sim.engine import ms, us
from repro.workloads.closedloop import ClosedLoopClient
from repro.workloads.openloop import OpenLoopClient

#: Closed-loop completions excluded from the latency samples.
WARMUP = 64

#: Equal parts of simulated time the timed region is run in.  The work
#: in a slice is the same in every pass of a seed, so its cost can be
#: compared across passes slice by slice (onepass.py, run.py).
SLICES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    spec: RunSpec              # seed is replaced per run
    measure_ms: float          # simulated duration requests are issued for
    drain_ms: float            # extra simulated time for in-flight commits
    slo_us: float              # fixed commit-latency limit
    crash_leader_at_ms: tuple = ()   # offsets at which the leader is crashed


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "acuerdo_sat_1k_w32",
        RunSpec(system="acuerdo", n=3, payload_bytes=1000, window=32),
        measure_ms=40.0, drain_ms=1.0, slo_us=50.0),
    Workload(
        "acuerdo_floor_64b_w1",
        RunSpec(system="acuerdo", n=3, payload_bytes=64, window=1),
        measure_ms=70.0, drain_ms=1.0, slo_us=10.0),
    Workload(
        "zab_tcp_1k_w32",
        RunSpec(system="zookeeper", n=3, payload_bytes=1000, window=32),
        measure_ms=1200.0, drain_ms=8.0, slo_us=2000.0),
    Workload(
        "farm8_zipf_open",
        RunSpec(system="acuerdo", n=3, payload_bytes=64, workload="openloop",
                shards=8, users=100_000, skew=0.99, arrival_rate=500_000.0),
        measure_ms=40.0, drain_ms=1.0, slo_us=10.0),
    Workload(
        "acuerdo_failover_n5_open",
        RunSpec(system="acuerdo", n=5, payload_bytes=64, workload="openloop",
                check_invariants=True),
        measure_ms=50.0, drain_ms=2.0, slo_us=10.0,
        crash_leader_at_ms=(15.0, 32.0)),
)}

#: Fixed-rate period of the failover workload's open loop.
FAILOVER_PERIOD_NS = us(4)


class AckTimedClosedLoop(ClosedLoopClient):
    """``ClosedLoopClient`` that also records when each ack arrived, so
    the commit-gap metric exists for closed loops (the stock client
    keeps latencies only)."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.ack_times: list[int] = []

    def _acked(self, i: int, t0: int) -> None:
        self.ack_times.append(self.engine.now)
        super()._acked(i, t0)


@dataclass
class Prepared:
    """A built, settled workload, one ``client.start()`` away from its
    first request."""

    workload: Workload
    spec: RunSpec
    engine: Any
    groups: list                   # the consensus groups (1, or 8 on the farm)
    client: Any
    measure_ns: int
    drain_ns: int
    deployment: Any = None         # ShardedDeployment on the farm
    crash_offsets_ns: tuple = ()
    crashed: list = field(default_factory=list)

    def drive(self, mark: Callable[[], None]) -> None:
        """The timed region: issue requests for the fixed simulated
        duration, stop, and let in-flight commits drain.  ``mark`` is
        called at the end of each slice and again after the drain."""
        engine = self.engine
        t0 = engine.now
        for off in self.crash_offsets_ns:
            engine.schedule_at(t0 + off, self._crash_leader)
        self.client.start()
        for k in range(1, SLICES + 1):
            engine.run(until=t0 + self.measure_ns * k // SLICES)
            mark()
        self.client.stop()
        engine.run(until=t0 + self.measure_ns + self.drain_ns)
        mark()

    def _crash_leader(self) -> None:
        system = self.groups[0]
        leader = system.leader_id()
        if leader is not None:
            system.crash(leader)
            self.crashed.append(leader)


def prepare(name: str, seed: int, scale: float = 1.0,
            capture_spans: bool = False) -> Prepared:
    """Build and settle workload ``name`` for ``seed``.  ``scale``
    shortens the simulated duration (the benchmark's own tests)."""
    w = WORKLOADS[name]
    spec = w.spec.replace(seed=seed, duration_ms=w.measure_ms * scale,
                          capture_spans=capture_spans)
    engine = spec.make_engine()
    prepared = Prepared(w, spec, engine, [], None,
                        measure_ns=ms(spec.duration_ms), drain_ns=ms(w.drain_ms),
                        crash_offsets_ns=tuple(ms(t * scale)
                                               for t in w.crash_leader_at_ms))
    if spec.shards > 1:
        dep = ShardedDeployment(engine, system=spec.system, shards=spec.shards,
                                n=spec.n, group_config=farm_group_config(spec))
        dep.settle()
        prepared.deployment = dep
        prepared.groups = [g for _i, g in dep.local_groups()]
        prepared.client = aggregate_client(
            dep, users=spec.users, rate_rps=spec.arrival_rate, skew=spec.skew,
            message_size=spec.payload_bytes)
        return prepared
    system = build_from_spec(spec, engine,
                             record_deliveries=bool(w.crash_leader_at_ms))
    settle(system)
    prepared.groups = [system]
    if spec.workload == "closedloop":
        prepared.client = AckTimedClosedLoop(
            system, window=spec.window, message_size=spec.payload_bytes,
            warmup=WARMUP)
    else:
        prepared.client = OpenLoopClient(system, period_ns=FAILOVER_PERIOD_NS,
                                         message_size=spec.payload_bytes)
    return prepared
