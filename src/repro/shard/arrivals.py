"""Aggregate open-loop arrivals: 10⁵–10⁶ logical users as one process.

Simulating a million client processes would melt the event heap; the
standard queueing-theory shortcut is that the superposition of many
independent low-rate request streams converges to a Poisson process at
the aggregate rate.  So the shard farm models its user population as a
single :class:`~repro.workloads.openloop.OpenLoopClient` in Poisson
mode — one event per *request*, not per user — with Zipfian key skew
over a key space of ``users`` logical users.  Request keys partition
across groups through the deployment's router.
"""

from __future__ import annotations

from repro.shard.deployment import ShardedDeployment
from repro.workloads.openloop import OpenLoopClient

#: RNG stream feeding the aggregate arrival process (interarrival gaps
#: and key draws); deployment-level, so it is shared by no group.
ARRIVAL_STREAM = "shard.arrivals"


def aggregate_client(deployment: ShardedDeployment, users: int,
                     rate_rps: float, skew: float = 0.99,
                     message_size: int = 64,
                     rng_stream: str = ARRIVAL_STREAM) -> OpenLoopClient:
    """An open-loop client modelling ``users`` logical users issuing
    ``rate_rps`` aggregate requests/second.

    ``skew`` is the Zipfian theta over the user key space (hot users
    dominate); ``skew=0`` selects uniformly.  The client is *not*
    started — drive it like any open-loop client.
    """
    if users < 1:
        raise ValueError(f"users must be >= 1, got {users}")
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    period_ns = max(1, int(1e9 / rate_rps))
    key_dist = "zipfian" if skew > 0 else "uniform"
    return OpenLoopClient(deployment, period_ns=period_ns,
                          message_size=message_size, arrival="poisson",
                          key_dist=key_dist, key_space=users, skew=skew,
                          rng_stream=rng_stream)
