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

This argument needs one precondition, checked at run time whenever a
farm runs as more than one slice: ``settle`` must leave the engine
clock at 0 (true for the Acuerdo preseeded start; protocols that *run*
an election to settle advance the clock cumulatively per group, making
slice and farm diverge — those raise).  A single slice holding every
group IS the serial farm, so it carries no precondition.

There is one farm driver (:func:`repro.harness.shardsweep.shard_point`)
and everything it runs lives here: :func:`prepare_farm` turns a spec
and a group range into a settled, fault-armed deployment plus its
arrival client; :func:`run_slice` drives one such slice and sends home
a :class:`SliceResult`; :func:`merge_slices` folds the slices into the
:class:`ShardPoint`.  ``spec.workers`` only sets how many slices there
are — ``workers=1`` is the one-slice case of the same code.

Merging is deterministic: each group is owned by exactly one slice, so
per-shard arrays concatenate exactly; the latency multiset (and hence
every percentile) is identical; ``events_executed`` sums the slices'
engines (with several slices NOT comparable 1:1 to the one-slice farm —
foreign-event elision makes the sum smaller).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.monitors import finish_monitors
from repro.shard.arrivals import aggregate_client
from repro.shard.deployment import ShardedDeployment
from repro.sim.engine import ms
from repro.sim.failure import arm_faults

if TYPE_CHECKING:  # harness imports this module; keep the edge one-way
    from repro.harness.runspec import RunSpec
    from repro.workloads.openloop import OpenLoopClient


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
    #: Host-cost proxy: events the slices' engines executed in total.
    events_executed: int
    #: Safety violations the runtime monitors observed (0 unless the
    #: spec set ``check_invariants``; always 0 on a healthy farm).
    violations: int = 0
    #: Group slices that produced this point (1 = one engine ran every
    #: group) — recorded so BENCH artifacts are self-describing.
    workers: int = 1


def _percentile(sorted_vals: list[int], pct: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(len(sorted_vals) * pct / 100.0))
    return sorted_vals[idx]


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
    latencies_ns: list       # per group array("q"), same indexing
    fingerprints: dict       # group -> digest (shard_fingerprints)
    violations: list         # (group_or_None, str(violation)) pairs
    foreign: int
    events_executed: int
    sim_elapsed_ns: int
    spans: list = field(default_factory=list)


def prepare_farm(spec: RunSpec, lo: int, hi: int,
                 group_config: "dict | None" = None,
                 ) -> "tuple[ShardedDeployment, OpenLoopClient]":
    """Turn ``spec`` into groups [lo, hi) of its farm, serving, on a
    fresh engine (``dep.engine``): build the deployment with the
    *original* group indices, settle it, arm the entries of the spec's
    fault plan that this slice's groups own (``@ms`` counts from the
    moment this returns), and build the full aggregate arrival client —
    returned unstarted.

    The farm counterpart of :func:`repro.harness.factory.prepare`, and
    the only place a farm is constructed or faulted."""
    engine = spec.make_engine()
    dep = ShardedDeployment(engine, system=spec.system, shards=spec.shards,
                            n=spec.n, group_config=group_config,
                            group_range=(lo, hi))
    dep.settle()
    if (lo, hi) != (0, spec.shards) and engine.now != 0:
        raise RuntimeError(
            f"system {spec.system!r} advances the engine clock while "
            f"settling (now={engine.now}ns after settle), so a slice's "
            f"clock would diverge from the whole farm's; slicing a farm "
            f"needs a clock-neutral settle (acuerdo preseeds without "
            f"running the engine) — use workers=1")
    arm_faults(engine, spec.faults, dict(dep.local_groups()))
    client = aggregate_client(dep, users=spec.users,
                              rate_rps=spec.arrival_rate, skew=spec.skew,
                              message_size=spec.payload_bytes)
    return dep, client


def drive_farm(dep: ShardedDeployment, client: OpenLoopClient,
               duration_ms: float) -> int:
    """Issue arrivals for ``duration_ms`` of simulated time, stop, and
    let commits in flight at the deadline drain for one extra
    millisecond.  Returns the simulated nanoseconds elapsed."""
    engine = dep.engine
    t_start = engine.now
    client.start()
    engine.run(until=t_start + ms(duration_ms))
    client.stop()
    engine.run(until=t_start + ms(duration_ms) + ms(1))
    return engine.now - t_start


def run_slice(spec: RunSpec, lo: int, hi: int,
              group_config: "dict | None" = None) -> SliceResult:
    """Run groups [lo, hi) of ``spec``'s farm on a fresh engine and
    collect the per-shard observables.  Module-level and picklable, so
    :func:`~repro.harness.parallel.run_points` can fan it out."""
    dep, client = prepare_farm(spec, lo, hi, group_config)
    engine = dep.engine
    sim_elapsed_ns = drive_farm(dep, client, spec.duration_ms)
    violations = finish_monitors(engine)
    spans = list(engine.obs.messages) if engine.obs is not None else []
    return SliceResult(
        lo=lo, hi=hi,
        submitted=dep.submitted[lo:hi],
        committed=dep.committed[lo:hi],
        dropped=dep.dropped[lo:hi],
        latencies_ns=dep.latencies_ns[lo:hi],
        fingerprints=dep.shard_fingerprints(violations),
        violations=[(v.group, str(v)) for v in violations],
        foreign=dep.foreign,
        events_executed=engine.events_executed,
        sim_elapsed_ns=sim_elapsed_ns,
        spans=spans,
    )


def merge_slices(spec: RunSpec, results: "list[SliceResult]",
                 collect: Optional[dict] = None) -> ShardPoint:
    """Fold the slices of one farm run (in slice order, which is group
    order) into its :class:`ShardPoint`.

    The merge is exact, not approximate: each group is owned by one
    slice, per-shard counters and latency sequences concatenate in
    group order, and percentiles are computed over the identical
    latency multiset — so the point is the same at every slice count
    (modulo the host-cost fields; see module docstring).

    ``collect`` (a dict) receives the side channel:
    ``shard_fingerprints``, ``slices``, ``violations``, ``foreign``,
    and ``spans``."""
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
    for r in results:
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
        collect["slices"] = [(r.lo, r.hi) for r in results]
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
        workers=len(results),
    )
