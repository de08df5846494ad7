"""Experiment harness: build systems, drive workloads, render results.

One module per paper artifact:

- :mod:`repro.harness.fig8` — broadcast latency/throughput sweeps;
- :mod:`repro.harness.table1` — election duration vs replica count;
- :mod:`repro.harness.fig9` — YCSB-load over the replicated hash table;
- :mod:`repro.harness.ablations` — the design-decision ablations from
  DESIGN.md §4 (wire efficiency, slow-node tolerance, slot-release
  policy, election mechanisms).

Cross-cutting plumbing:

- :mod:`repro.harness.runspec` — the :class:`RunSpec` every entry point
  (and the ``repro`` CLI) consumes;
- :mod:`repro.harness.parallel` — the process-pool sweep runner every
  driver fans its independent points through;
- :mod:`repro.harness.shardsweep` — shard-farm sweeps over the
  :mod:`repro.shard` scale-out deployment (shard count × key skew).

The benchmarks in ``benchmarks/`` are thin wrappers over these drivers.

Every entry point consumes a :class:`RunSpec`, and every driver turns
it into a running system in one place: :func:`prepare` (build, settle,
arm the spec's crash / partition / Byzantine schedules) for a single
group, :func:`repro.shard.parallel.prepare_farm` for a slice of a farm.
Farm points have one driver too — :func:`shard_point` runs
``min(shards, workers)`` slices and merges them; ``workers=1`` is the
one-slice case, not a separate path.
"""

from repro.harness.factory import SYSTEMS, build_from_spec, prepare, settle
from repro.harness.fig8 import Fig8Point
from repro.harness.fig9 import fig9_grid, fig9_ycsb
from repro.harness.parallel import default_workers, run_points
from repro.harness.render import render_series, render_table
from repro.harness.runspec import WORKLOADS, RunSpec
from repro.harness.shardsweep import ShardPoint, shard_point, shard_sweep
from repro.harness.table1 import table1_all

__all__ = [
    "SYSTEMS",
    "WORKLOADS",
    "RunSpec",
    "build_from_spec",
    "prepare",
    "settle",
    "Fig8Point",
    "run_points",
    "default_workers",
    "table1_all",
    "fig9_grid",
    "fig9_ycsb",
    "render_table",
    "render_series",
    "ShardPoint",
    "shard_point",
    "shard_sweep",
]
