"""Sharded multi-group deployments: many consensus groups, one engine.

The single-group core scales *up* (window, message size, replica
count); this package scales *out*: a
:class:`~repro.shard.deployment.ShardedDeployment` hosts N independent
groups behind a key-hashed :class:`~repro.shard.router.ShardRouter`,
and :func:`~repro.shard.arrivals.aggregate_client` models 10⁵–10⁶
logical users as one Poisson/Zipfian open-loop arrival process.  See
DESIGN.md "Sharded deployment" for the identity scheme and the
determinism argument; ``repro shard`` and
:mod:`repro.harness.shardsweep` drive the shard-count × skew sweeps,
each point through the slice machinery of :mod:`repro.shard.parallel`.
"""

from repro.shard.arrivals import ARRIVAL_STREAM, aggregate_client
from repro.shard.deployment import ShardedDeployment, default_key_of
from repro.shard.parallel import (SliceResult, prepare_farm, run_slice,
                                  slice_ranges)
from repro.shard.router import ShardRouter, stable_key_hash

__all__ = [
    "ARRIVAL_STREAM",
    "ShardRouter",
    "ShardedDeployment",
    "SliceResult",
    "aggregate_client",
    "default_key_of",
    "prepare_farm",
    "run_slice",
    "slice_ranges",
    "stable_key_hash",
]
