"""Shard-farm sweeps: aggregate throughput/latency vs shard count × skew.

The single-group harnesses answer "how fast is one group"; this one
answers the deployment question — how does an N-group farm behave as the
shard count grows and the key popularity skews?  Each point builds a
:class:`~repro.shard.ShardedDeployment` of ``spec.shards`` groups,
drives it with the aggregate Poisson/Zipfian arrival process of
``spec.users`` logical users at ``spec.arrival_rate`` requests/second,
and reports farm-wide throughput, commit-latency percentiles and the
hottest shard's load share (the skew's routing signature).

Every point is an independent deterministic simulation, so
:func:`shard_sweep` fans the grid through
:func:`~repro.harness.parallel.run_points` — and the router's stable
key hash guarantees worker processes route identically to a sequential
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.config import AcuerdoConfig
from repro.harness.runspec import RunSpec
from repro.sim.engine import ms, us

#: Default widened Acuerdo heartbeat for farm runs, in µs.  At the
#: single-group default (2 µs) every idle group burns a commit-push
#: event 500k times per simulated second; at 20 µs idle groups park
#: between arrivals and a 64-group farm stays inside the CI budget.
FARM_HEARTBEAT_US = 20


@dataclass(frozen=True)
class ShardPoint:
    """One point of a shard-farm sweep."""

    system: str
    shards: int
    n: int
    users: int
    skew: float
    arrival_rate: float
    duration_ms: float
    submitted: int
    committed: int
    dropped: int
    throughput_rps: float
    mean_latency_us: float
    p50_latency_us: float
    p99_latency_us: float
    #: Load share of the most-loaded shard (1/shards when uniform;
    #: rises with Zipfian skew — the routing signature of hot keys).
    hottest_share: float
    #: Host-cost proxy: events the engine executed for this point.
    events_executed: int
    #: Safety violations the runtime monitors observed (0 unless the
    #: spec set ``check_invariants``; always 0 on a healthy farm).
    violations: int = 0
    #: Slice workers that produced this point (1 = one serial engine;
    #: k = ``repro.shard.parallel`` ran k group slices) — recorded so
    #: BENCH artifacts are self-describing.
    workers: int = 1


def _percentile(sorted_vals: list[int], pct: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(len(sorted_vals) * pct / 100.0))
    return sorted_vals[idx]


def farm_group_config(spec: RunSpec,
                      heartbeat_us: Optional[int] = None) -> "dict | None":
    """Per-group constructor kwargs for a farm run of ``spec``.

    For Acuerdo groups this widens ``commit_push_period_ns`` to
    ``heartbeat_us`` (default :data:`FARM_HEARTBEAT_US`) so idle groups
    park between arrivals; other systems need no tuning and get None.
    """
    if spec.system != "acuerdo":
        return None
    hb = FARM_HEARTBEAT_US if heartbeat_us is None else heartbeat_us
    return {"config": AcuerdoConfig(commit_push_period_ns=us(hb))}


def shard_point(spec: RunSpec, heartbeat_us: Optional[int] = None,
                collect: Optional[dict] = None) -> ShardPoint:
    """Measure one shard-farm point described by ``spec``.

    ``spec.shards`` groups of ``spec.n`` nodes are settled, then the
    aggregate client issues requests for ``spec.duration_ms`` of
    simulated time; commits still in flight at the deadline drain for
    one extra millisecond.  Module-level and argument-picklable, so
    :func:`~repro.harness.parallel.run_points` can fan it out.

    With ``spec.workers > 1`` the farm's groups are sliced across that
    many worker processes by :func:`repro.shard.parallel.
    parallel_shard_point` — per-shard results are bit-identical either
    way (only the host-cost fields differ); ``collect`` is that path's
    side channel and, when given here, is filled for the serial path
    too (``shard_fingerprints``, ``violations``).
    """
    from repro.shard import ShardedDeployment, aggregate_client
    from repro.sim.failure import check_group_schedules

    if spec.users < 1 or spec.arrival_rate <= 0:
        raise ValueError("shard_point needs spec.users >= 1 and "
                         f"spec.arrival_rate > 0, got users={spec.users}, "
                         f"arrival_rate={spec.arrival_rate}")
    check_group_schedules(spec.shards, spec.crashes, spec.partitions,
                          spec.byz)
    if spec.workers > 1 and spec.shards > 1:
        from repro.shard.parallel import parallel_shard_point

        return parallel_shard_point(spec, heartbeat_us, collect=collect)
    engine = spec.make_engine()
    dep = ShardedDeployment(engine, system=spec.system, shards=spec.shards,
                            n=spec.n,
                            group_config=farm_group_config(spec, heartbeat_us))
    dep.settle()
    if spec.crashes:
        from repro.sim.failure import schedule_crashes

        schedule_crashes(engine, dep.processes(), spec.crashes)
    if spec.partitions:
        from repro.shard.deployment import schedule_farm_partitions

        schedule_farm_partitions(dep, spec.partitions)
    if spec.byz:
        # check_group_schedules restricted byz to single-group farms.
        from repro.sim.failure import schedule_byz

        schedule_byz(engine, dep.groups[0], spec.byz)
    client = aggregate_client(dep, users=spec.users,
                              rate_rps=spec.arrival_rate, skew=spec.skew,
                              message_size=spec.payload_bytes)
    t_start = engine.now
    client.start()
    engine.run(until=t_start + ms(spec.duration_ms))
    client.stop()
    engine.run(until=t_start + ms(spec.duration_ms) + ms(1))
    elapsed_s = (engine.now - t_start) / 1e9
    lats = sorted(dep.all_latencies_ns())
    total_sub = dep.total_submitted()
    vio_list = (engine.monitors.finish()
                if engine.monitors is not None else [])
    violations = len(vio_list)
    if collect is not None:
        collect["shard_fingerprints"] = dep.shard_fingerprints(vio_list)
        collect["violations"] = [str(v) for v in vio_list]
        collect["foreign"] = dep.foreign
    return ShardPoint(
        system=spec.system,
        shards=spec.shards,
        n=spec.n,
        users=spec.users,
        skew=spec.skew,
        arrival_rate=spec.arrival_rate,
        duration_ms=spec.duration_ms,
        submitted=total_sub,
        committed=dep.total_committed(),
        dropped=sum(dep.dropped),
        throughput_rps=dep.total_committed() / elapsed_s if elapsed_s > 0 else 0.0,
        mean_latency_us=(sum(lats) / len(lats)) / 1e3 if lats else 0.0,
        p50_latency_us=_percentile(lats, 50) / 1e3,
        p99_latency_us=_percentile(lats, 99) / 1e3,
        hottest_share=max(dep.submitted) / total_sub if total_sub else 0.0,
        events_executed=engine.events_executed,
        violations=violations,
    )


def shard_sweep(spec: RunSpec, shard_counts: Iterable[int],
                skews: Iterable[float],
                workers: Optional[int] = None,
                heartbeat_us: Optional[int] = None) -> list[ShardPoint]:
    """The shard-count × skew grid, in row-major (shards, skew) order.

    Points fan across :func:`~repro.harness.parallel.run_points`
    workers; results come back in grid order regardless of worker
    count (each point is a pure function of its spec).
    ``heartbeat_us`` (and ``spec.workers``, the per-point slice width)
    thread through to *every* point.  When points slice themselves
    across processes (``spec.workers > 1``) the sweep fan-out defaults
    to sequential so the two pools don't multiply: pass ``workers=``
    explicitly to stack them anyway.
    """
    from repro.harness.parallel import run_points

    grid = [(spec.replace(shards=s, skew=k), heartbeat_us)
            for s in shard_counts for k in skews]
    if workers is not None:
        nworkers = workers
    else:
        nworkers = 1 if spec.workers > 1 else spec.workers
    return run_points(shard_point, grid, workers=nworkers)
