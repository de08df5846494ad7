"""Space-parallel shard farms: disjoint group slices on worker engines.

A :class:`~repro.shard.deployment.ShardedDeployment` of N groups is a
set of *independent* consensus groups: groups share the engine clock
and heap but never exchange messages, and every per-group identity
(RNG streams, process names, span labels, metrics namespaces) is fixed
at construction time by ``engine.scoped(g)``.  That independence makes
the farm space-partitionable: split the groups into contiguous slices,
run each slice in its own worker process on its own engine, and merge
the per-shard results — sidestepping both the per-event interpreter
floor and the GIL that cap a single event loop.

Why a slice is bit-identical to the same groups inside the full farm:

- **identity** — the slice deployment is constructed with the *original*
  group indices (``group_range``), so group g's streams are seeded
  ``f"{seed}|shard.{g}.{...}"`` exactly as in the serial farm, and the
  router hashes over the full shard count, so key placement is
  unchanged.
- **arrivals** — the slice replays the FULL aggregate arrival stream
  (``shard.arrivals``): every key and inter-arrival gap is drawn in the
  same order as serially.  Keys homed outside the slice are counted as
  ``foreign`` and skipped; the open-loop client never inspects submit
  results, so local behaviour is unaffected.
- **ordering** — dropping foreign groups' events removes heap entries
  but preserves the relative (time, seq) order of every surviving
  event: seq values shift by a constant-per-prefix amount, and the heap
  orders lexicographically, so in-slice events execute in the same
  relative order at the same simulated times.

This argument needs one precondition, checked at run time: ``settle``
must leave the engine clock at 0 (true for the Acuerdo preseeded start;
protocols that *run* an election to settle advance the clock
cumulatively per group, making slice and farm diverge — those raise).

Merging is deterministic: each group is owned by exactly one slice, so
per-shard arrays concatenate exactly; the latency multiset (and hence
every percentile) is identical; ``events_executed`` sums to the
parallel host cost (NOT comparable 1:1 to the serial farm —
foreign-event elision makes the sum smaller).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.harness.runspec import RunSpec
from repro.harness.shardsweep import (ShardPoint, _percentile,
                                      farm_group_config)
from repro.sim.engine import ms


def slice_ranges(shards: int, workers: int) -> "list[tuple[int, int]]":
    """Partition ``range(shards)`` into at most ``workers`` contiguous
    near-equal half-open slices (never empty; at most ``shards`` of
    them).  Deterministic in its arguments."""
    if shards < 1 or workers < 1:
        raise ValueError(
            f"need shards >= 1 and workers >= 1, got {shards}/{workers}")
    nslices = min(shards, workers)
    base, extra = divmod(shards, nslices)
    out, lo = [], 0
    for i in range(nslices):
        hi = lo + base + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


@dataclass
class SliceResult:
    """What one slice worker sends home (picklable, group-indexed)."""

    lo: int
    hi: int
    submitted: list          # per group in [lo, hi), in group order
    committed: list
    dropped: list
    latencies_ns: list       # list[list[int]], same indexing
    fingerprints: dict       # group -> digest (shard_fingerprints)
    violations: list         # (group_or_None, str(violation)) pairs
    foreign: int
    events_executed: int
    sim_elapsed_ns: int
    seconds: float           # wall-clock inside the worker
    spans: list = field(default_factory=list)


def _slice_crashes(spec: RunSpec, lo: int, hi: int) -> "tuple[str, ...]":
    """The crash entries whose target group falls in [lo, hi).  With one
    shard every entry is local; with more, validation has already forced
    the unambiguous ``g:n`` form."""
    from repro.sim.failure import parse_crash

    if spec.shards == 1:
        return spec.crashes
    keep = []
    for entry in spec.crashes:
        addr, _ = parse_crash(entry)
        if isinstance(addr, tuple) and lo <= addr[0] < hi:
            keep.append(entry)
    return tuple(keep)


def run_slice(spec: RunSpec, lo: int, hi: int,
              heartbeat_us: Optional[int] = None) -> SliceResult:
    """Run groups [lo, hi) of ``spec``'s farm on a fresh engine and
    collect the per-shard observables.  Module-level and picklable, so
    :func:`~repro.harness.parallel.run_points` can fan it out."""
    from repro.shard import ShardedDeployment, aggregate_client

    t_wall = _time.perf_counter()
    engine = spec.make_engine()
    dep = ShardedDeployment(engine, system=spec.system, shards=spec.shards,
                            n=spec.n,
                            group_config=farm_group_config(spec, heartbeat_us),
                            group_range=(lo, hi))
    dep.settle()
    if engine.now != 0:
        raise RuntimeError(
            f"system {spec.system!r} advances the engine clock while "
            f"settling (now={engine.now}ns after settle), so a slice's "
            f"clock would diverge from the serial farm's; shard-parallel "
            f"execution needs a clock-neutral settle (acuerdo preseeds "
            f"without running the engine) — use workers=1")
    if spec.crashes:
        from repro.sim.failure import schedule_crashes

        schedule_crashes(engine, dep.processes(), _slice_crashes(spec, lo, hi))
    if spec.partitions:
        from repro.shard.deployment import schedule_farm_partitions

        schedule_farm_partitions(dep, spec.partitions)
    if spec.byz:
        # check_group_schedules restricts byz to shards == 1, where the
        # single slice holds the single group.
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
    violations = (engine.monitors.finish()
                  if engine.monitors is not None else [])
    spans = list(engine.obs.messages) if getattr(engine, "obs", None) else []
    return SliceResult(
        lo=lo, hi=hi,
        submitted=[dep.submitted[g] for g in range(lo, hi)],
        committed=[dep.committed[g] for g in range(lo, hi)],
        dropped=[dep.dropped[g] for g in range(lo, hi)],
        latencies_ns=[dep.latencies_ns[g] for g in range(lo, hi)],
        fingerprints=dep.shard_fingerprints(violations),
        violations=[(v.group, str(v)) for v in violations],
        foreign=dep.foreign,
        events_executed=engine.events_executed,
        sim_elapsed_ns=engine.now - t_start,
        seconds=_time.perf_counter() - t_wall,
        spans=spans,
    )


def parallel_shard_point(spec: RunSpec,
                         heartbeat_us: Optional[int] = None,
                         collect: Optional[dict] = None,
                         pool_workers: Optional[int] = None) -> ShardPoint:
    """Measure ``spec``'s farm point by fanning contiguous group slices
    over ``spec.workers`` processes and merging deterministically.

    The merge is exact, not approximate: each group is owned by one
    slice, per-shard counters and latency sequences concatenate in
    group order, and percentiles are computed over the identical
    latency multiset — so the returned point matches ``workers=1``
    bit-for-bit (modulo the host-cost fields, which sum the workers'
    engines; see module docstring).

    ``collect`` (a dict) receives the merge's side channel:
    ``shard_fingerprints``, ``slices``, ``slice_seconds``,
    ``violations``, ``foreign``, and ``spans``.  ``pool_workers``
    overrides the process-pool width without changing the slicing —
    ``pool_workers=1`` runs the same slices sequentially, which is how
    hostperf measures honest per-slice inner times on small hosts.
    """
    from repro.harness.parallel import run_points
    from repro.sim.failure import check_group_schedules

    if spec.users < 1 or spec.arrival_rate <= 0:
        raise ValueError("parallel_shard_point needs spec.users >= 1 and "
                         f"spec.arrival_rate > 0, got users={spec.users}, "
                         f"arrival_rate={spec.arrival_rate}")
    check_group_schedules(spec.shards, spec.crashes, spec.partitions,
                          spec.byz)
    slices = slice_ranges(spec.shards, max(1, spec.workers))
    pool = len(slices) if pool_workers is None else pool_workers
    results: "list[SliceResult]" = run_points(
        run_slice, [(spec, lo, hi, heartbeat_us) for lo, hi in slices],
        workers=pool)

    sim_elapsed = {r.sim_elapsed_ns for r in results}
    if len(sim_elapsed) != 1:
        raise RuntimeError(
            f"slices disagree on simulated elapsed time ({sorted(sim_elapsed)}"
            f" ns) — the determinism precondition was violated")
    submitted: "list[int]" = []
    committed: "list[int]" = []
    dropped: "list[int]" = []
    lats: "list[int]" = []
    fingerprints: "dict[int, str]" = {}
    violations: "list[tuple[Any, str]]" = []
    spans: "list[Any]" = []
    for r in results:                      # slice order == group order
        submitted.extend(r.submitted)
        committed.extend(r.committed)
        dropped.extend(r.dropped)
        for per_group in r.latencies_ns:
            lats.extend(per_group)
        fingerprints.update(r.fingerprints)
        violations.extend(r.violations)
        spans.extend(r.spans)
    lats.sort()
    total_sub = sum(submitted)
    elapsed_s = results[0].sim_elapsed_ns / 1e9
    if collect is not None:
        collect["shard_fingerprints"] = fingerprints
        collect["slices"] = slices
        collect["slice_seconds"] = [r.seconds for r in results]
        collect["violations"] = [text for _g, text in violations]
        collect["foreign"] = sum(r.foreign for r in results)
        collect["spans"] = spans
    return ShardPoint(
        system=spec.system,
        shards=spec.shards,
        n=spec.n,
        users=spec.users,
        skew=spec.skew,
        arrival_rate=spec.arrival_rate,
        duration_ms=spec.duration_ms,
        submitted=total_sub,
        committed=sum(committed),
        dropped=sum(dropped),
        throughput_rps=sum(committed) / elapsed_s if elapsed_s > 0 else 0.0,
        mean_latency_us=(sum(lats) / len(lats)) / 1e3 if lats else 0.0,
        p50_latency_us=_percentile(lats, 50) / 1e3,
        p99_latency_us=_percentile(lats, 99) / 1e3,
        hottest_share=max(submitted) / total_sub if total_sub else 0.0,
        events_executed=sum(r.events_executed for r in results),
        violations=len(violations),
        workers=len(slices),
    )
