"""Engine hot-loop microbenchmark: raw schedule/run rate.

Every simulated event in the repository funnels through
``Engine.schedule_at`` + ``Engine.run``; this bench pins their raw cost
on the host, independent of any protocol logic.

The floor is deliberately conservative — it catches the hot loop becoming
accidentally quadratic or re-gaining per-event allocations, not normal
host jitter.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit, run_once
from repro.harness import render_table
from repro.sim.engine import Engine

EVENTS = 200_000

#: Conservative events/second floor (a warm CPython on any recent host
#: clears it by >5x; see BENCH_host_perf.json for measured rates).
SINGLES_MIN_EPS = 100_000.0


def _nop(*_args) -> None:
    return None


def _run_singles() -> dict:
    engine = Engine(seed=1)
    for i in range(EVENTS):
        engine.schedule_at(i, _nop, i)
    t0 = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - t0
    return {"events": engine.events_executed, "wall_s": wall,
            "eps": engine.events_executed / wall if wall > 0 else 0.0}


def _measure() -> dict:
    # Best-of-3: the floor gates a deterministic cost, not host noise.
    return min((_run_singles() for _ in range(3)), key=lambda r: r["wall_s"])


def test_bench_engine_hot_loop(benchmark, capsys) -> None:
    s = run_once(benchmark, _measure)
    emit("engine_hot_loop", render_table(
        f"Engine hot loop: {EVENTS} no-op events",
        ["events", "wall_s", "events_per_s"],
        [[s["events"], round(s["wall_s"], 4), round(s["eps"])]]),
        capsys)

    assert s["events"] == EVENTS
    assert s["eps"] >= SINGLES_MIN_EPS, \
        f"singles rate {s['eps']:.0f} ev/s below floor {SINGLES_MIN_EPS:.0f}"
