"""Ablation (DESIGN.md §4.2): quorum commit vs virtual synchrony under a
long-latency node.

The paper's core architectural claim: "Acuerdo will simply leave the
node behind to catch up later" while "a single slow node will force the
entire [Derecho] cluster to commit operations at its speed" (§4.1).

Setup: 3 replicas, one follower runs 12x slow (below Derecho's failure
detector so it is *not* configured out).  Measured: client latency with
and without the slow node, plus Acuerdo's catch-up behaviour.
"""

from __future__ import annotations

from benchmarks.conftest import WORKERS, emit, run_once
from repro.harness.factory import build_from_spec, settle
from repro.harness.parallel import run_points
from repro.harness.render import render_table
from repro.harness.runspec import RunSpec
from repro.protocols.derecho import DerechoConfig
from repro.sim import Engine, FailureInjector, ms, us
from repro.workloads.closedloop import ClosedLoopClient

SLOW = 12.0


def _measure(name: str, slow: bool, seed: int = 3) -> dict:
    engine = Engine(seed=seed)
    kwargs = {}
    if name.startswith("derecho"):
        # Keep the slow node under the failure detector: this ablation
        # isolates slow-node *waiting*, not view changes.
        kwargs["config"] = DerechoConfig(mode="leader",
                                         heartbeat_timeout_ns=us(800))
    system = build_from_spec(RunSpec(system=name, n=3, seed=seed), engine,
                             **kwargs)
    settle(system)
    if slow:
        FailureInjector(engine, system.processes()).slow_node(2, SLOW)
    client = ClosedLoopClient(system, window=4, message_size=10, warmup=30)
    client.start()
    deadline = engine.now + ms(120)
    while len(client.latencies) < 300 and engine.now < deadline:
        engine.run(until=engine.now + ms(2))
    client.stop()
    res = client.result()
    out = {"lat": res.mean_latency_us, "completed": res.completed}
    if name == "acuerdo" and slow:
        # The slow node trails but keeps catching up in batches.
        out["slow_node_delivered"] = system.deliveries.delivered_count(2)
        engine.run(until=engine.now + ms(30))
        out["slow_node_delivered_after_drain"] = system.deliveries.delivered_count(2)
    return out


def _run() -> dict:
    cells = [("acuerdo", False), ("acuerdo", True),
             ("derecho-leader", False), ("derecho-leader", True)]
    return dict(zip(cells, run_points(_measure, cells, workers=WORKERS)))


def test_slow_node_tolerance(benchmark, capsys):
    r = run_once(benchmark, _run)
    rows = []
    for name in ("acuerdo", "derecho-leader"):
        base = r[(name, False)]["lat"]
        slow = r[(name, True)]["lat"]
        rows.append([name, round(base, 1), round(slow, 1), round(slow / base, 2)])
    emit("ablation_slow_node", render_table(
        "Ablation: one 12x long-latency follower (3 nodes, 10 B, window 4)",
        ["system", "lat_us_healthy", "lat_us_slow_node", "slowdown"],
        rows), capsys)

    acu_ratio = r[("acuerdo", True)]["lat"] / r[("acuerdo", False)]["lat"]
    der_ratio = r[("derecho-leader", True)]["lat"] / r[("derecho-leader", False)]["lat"]
    # Acuerdo barely notices (fastest-quorum commit)...
    assert acu_ratio < 1.5, acu_ratio
    # ...Derecho commits at the slow node's pace.
    assert der_ratio > 2.0, der_ratio
    assert der_ratio > 2 * acu_ratio
