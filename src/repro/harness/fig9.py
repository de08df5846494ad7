"""Fig. 9: YCSB-load throughput (ops/sec) vs node count.

Method, following §4.3: a replicated hash table sits at every replica;
update commands are replicated through the broadcast system and applied
(and acknowledged) on commit; the client applies YCSB-load's
Zipfian(0.99) write stream through a closed-loop window sized well past
each system's knee so the number reported is saturated throughput.

The paper compares the Acuerdo-backed table against ZooKeeper and etcd
(both effectively in-memory-equivalent deployments of the same state).

The entry point consumes a :class:`~repro.harness.runspec.RunSpec`
(:func:`point`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.hashtable import ReplicatedHashTable
from repro.harness.factory import prepare
from repro.harness.runspec import RunSpec
from repro.sim.engine import ms
from repro.substrate import CostModel
from repro.workloads.closedloop import ClosedLoopClient
from repro.workloads.ycsb import YcsbLoadWorkload

#: The Fig. 9 systems.
FIG9_SYSTEMS = ["acuerdo", "zookeeper", "etcd"]


@dataclass
class Fig9Point:
    system: str
    n: int
    ops_per_sec: float
    completed: int


#: Per-op KV request processing at the serving replica (parse the RDMA
#: request, apply to the hash table, post the reply write) — FaRM-style
#: services spend a few microseconds here, which is what separates the
#: ~10^5 ops/s KV service from the ~10^6 raw broadcast engine.
KV_SERVICE_CPU_NS = 3_500


def point(spec: RunSpec, min_completions: int = 500,
          record_count: int = 2_000,
          substrate_params: Optional[CostModel] = None) -> Fig9Point:
    """Measure saturated YCSB-load ops/sec for ``spec``.

    ``spec.payload_bytes`` is the wire size of one update op: 8 bytes of
    key plus the YCSB value (so the value size is ``payload_bytes - 8``).
    """
    kwargs = {}
    if spec.system == "acuerdo":
        from repro.core.config import AcuerdoConfig

        cfg = AcuerdoConfig()
        cfg.broadcast_cpu_ns += KV_SERVICE_CPU_NS
        kwargs["config"] = cfg
    system = prepare(spec, substrate_params=substrate_params, **kwargs)
    engine = system.engine
    table = ReplicatedHashTable(system)
    value_size = max(1, spec.payload_bytes - 8)
    workload = YcsbLoadWorkload(engine, record_count=record_count,
                                value_size=value_size)
    ops = [workload.next_op() for _ in range(4096)]

    client = ClosedLoopClient(system, window=spec.window,
                              message_size=8 + value_size,
                              payload_fn=lambda i: ops[i % len(ops)],
                              warmup=min(100, 2 * spec.window))
    client.start()
    chunk = ms(4)
    deadline = engine.now + ms(spec.duration_ms)
    while len(client.latencies) < min_completions and engine.now < deadline:
        engine.run(until=engine.now + chunk)
        chunk = min(chunk * 2, ms(64))
    client.stop()
    res = client.result()
    return Fig9Point(system=spec.system, n=spec.n,
                     ops_per_sec=res.throughput_msgs_per_sec,
                     completed=res.completed)


def grid_spec(system: str, n: int, seed: int = 1, window: int = 96,
              value_size: int = 100) -> RunSpec:
    """The RunSpec for one Fig. 9 grid cell (YCSB update stream whose
    wire size is 8 key bytes + the value)."""
    return RunSpec(system=system, n=n, payload_bytes=8 + value_size,
                   window=window, workload="ycsb", duration_ms=2_000.0,
                   seed=seed)


def fig9_grid(sizes=(3, 5, 7, 9), systems=FIG9_SYSTEMS, seed: int = 1,
              workers: int = 1, min_completions: int = 500) -> list[Fig9Point]:
    """Evaluate every (system, n) cell — independent simulations, fanned
    across ``workers`` processes — in deterministic grid order."""
    from repro.harness.parallel import run_points

    cells = [(grid_spec(name, n, seed=seed), min_completions)
             for name in systems for n in sizes]
    return run_points(point, cells, workers=workers)


def fig9_ycsb(sizes=(3, 5, 7, 9), systems=FIG9_SYSTEMS, seed: int = 1,
              workers: int = 1,
              min_completions: int = 500) -> dict[str, dict[int, float]]:
    """The full Fig. 9 grid: ``{system: {n: ops/sec}}``."""
    pts = fig9_grid(sizes, systems, seed=seed, workers=workers,
                    min_completions=min_completions)
    out: dict[str, dict[int, float]] = {name: {} for name in systems}
    for p in pts:
        out[p.system][p.n] = p.ops_per_sec
    return out
