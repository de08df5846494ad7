"""Shard-farm sweeps: aggregate throughput/latency vs shard count × skew.

The single-group harnesses answer "how fast is one group"; this one
answers the deployment question — how does an N-group farm behave as the
shard count grows and the key popularity skews?  Each point builds a
:class:`~repro.shard.ShardedDeployment` of ``spec.shards`` groups,
drives it with the aggregate Poisson/Zipfian arrival process of
``spec.users`` logical users at ``spec.arrival_rate`` requests/second,
and reports farm-wide throughput, commit-latency percentiles and the
hottest shard's load share (the skew's routing signature).

A point runs as ``min(spec.shards, spec.workers)`` contiguous group
slices (:mod:`repro.shard.parallel`), each on its own engine, merged
deterministically; ``workers=1`` is the one-slice case — one engine
running every group — not a separate code path.  Every point is an
independent deterministic simulation, so :func:`shard_sweep` fans the
grid through :func:`~repro.harness.parallel.run_points` — and the
router's stable key hash guarantees worker processes route identically
to a sequential run.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.config import AcuerdoConfig
from repro.harness.parallel import run_points
from repro.harness.runspec import RunSpec
from repro.shard.parallel import (ShardPoint, merge_slices, run_slice,
                                  slice_ranges)
from repro.sim.engine import us

#: Default widened Acuerdo heartbeat for farm runs, in µs.  At the
#: single-group default (2 µs) every idle group burns a commit-push
#: event 500k times per simulated second; at 20 µs idle groups park
#: between arrivals and a 64-group farm stays inside the CI budget.
FARM_HEARTBEAT_US = 20


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
                collect: Optional[dict] = None,
                pool_workers: Optional[int] = None) -> ShardPoint:
    """Measure one shard-farm point described by ``spec``.

    ``spec.shards`` groups of ``spec.n`` nodes are split into
    ``min(spec.shards, spec.workers)`` slices; each slice settles its
    groups on a fresh engine, replays the aggregate arrival stream for
    ``spec.duration_ms`` of simulated time and drains for one extra
    millisecond (:func:`~repro.shard.parallel.run_slice`), and the
    slices merge into one :class:`ShardPoint`
    (:func:`~repro.shard.parallel.merge_slices`, which also documents
    the ``collect`` side channel).  Per-shard results are bit-identical
    at every slice count; only the host-cost fields differ.

    Slices fan over that many processes; ``pool_workers`` overrides the
    pool width without changing the slicing — ``pool_workers=1`` runs
    the same slices sequentially, which is how hostperf measures honest
    per-slice inner times on small hosts.  Module-level and
    argument-picklable, so :func:`~repro.harness.parallel.run_points`
    can fan whole points out too.
    """
    if spec.users < 1 or spec.arrival_rate <= 0:
        raise ValueError("shard_point needs spec.users >= 1 and "
                         f"spec.arrival_rate > 0, got users={spec.users}, "
                         f"arrival_rate={spec.arrival_rate}")
    slices = slice_ranges(spec.shards, spec.workers)
    group_config = farm_group_config(spec, heartbeat_us)
    results = run_points(
        run_slice, [(spec, lo, hi, group_config) for lo, hi in slices],
        workers=len(slices) if pool_workers is None else pool_workers)
    return merge_slices(spec, results, collect)


def shard_sweep(spec: RunSpec, shard_counts: Iterable[int],
                skews: Iterable[float],
                workers: int = 1,
                heartbeat_us: Optional[int] = None) -> list[ShardPoint]:
    """The shard-count × skew grid, in row-major (shards, skew) order.

    Points fan across ``workers`` :func:`~repro.harness.parallel.
    run_points` processes (default: sequential, so a sweep of points
    that slice themselves via ``spec.workers`` doesn't multiply the two
    pools); results come back in grid order regardless (each point is a
    pure function of its spec).  ``heartbeat_us`` and ``spec.workers``,
    the per-point slice count, thread through to *every* point.
    """
    grid = [(spec.replace(shards=s, skew=k), heartbeat_us)
            for s in shard_counts for k in skews]
    return run_points(shard_point, grid, workers=workers)
