"""Fig. 8: broadcast latency vs throughput under varying window load.

For each system the driver sweeps the client window over powers of two
(starting at 1, as in §4.1) and reports one ``(throughput, latency)``
point per window; the sweep stops once throughput saturates — the knee.

The entry points consume a :class:`~repro.harness.runspec.RunSpec`
(:func:`point`, :func:`sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.harness.factory import prepare
from repro.harness.runspec import RunSpec
from repro.monitors import finish_monitors
from repro.sim.engine import ms
from repro.substrate import CostModel
from repro.workloads.closedloop import ClosedLoopClient


@dataclass
class Fig8Point:
    """One point of a Fig. 8 curve."""

    system: str
    n: int
    message_size: int
    window: int
    throughput_mb_s: float
    throughput_msgs_s: float
    mean_latency_us: float
    p99_latency_us: float
    completed: int
    #: transport totals over the run, read from the unified
    #: ``substrate.<backend>.*`` counters (same keys for every system).
    wire_bytes: int = 0
    wire_msgs: int = 0


def point(spec: RunSpec, min_completions: int = 400,
          substrate_params: Optional[CostModel] = None,
          collect: Optional[dict] = None) -> Fig8Point:
    """Measure one Fig. 8 point on a fresh cluster described by ``spec``.

    The run length adapts to the system's speed: it extends in chunks
    until ``min_completions`` messages have been measured or the
    ``spec.duration_ms`` sim-time budget is exhausted (the slow TCP
    systems need far more simulated time per message than the RDMA
    ones)."""
    system = prepare(spec, substrate_params=substrate_params)
    engine = system.engine
    client = ClosedLoopClient(system, window=spec.window,
                              message_size=spec.payload_bytes,
                              warmup=min(50, 2 * spec.window))
    client.start()
    chunk = ms(2)
    deadline = engine.now + ms(spec.duration_ms)
    while len(client.latencies) < min_completions and engine.now < deadline:
        engine.run(until=engine.now + chunk)
        chunk = min(chunk * 2, ms(32))
    client.stop()
    res = client.result()
    counters = system.substrate_counters()
    backend = system.substrate.backend if system.substrate else ""
    violations = finish_monitors(engine)
    if collect is not None:
        collect["violations"] = len(violations)
    return Fig8Point(
        system=spec.system,
        n=spec.n,
        message_size=spec.payload_bytes,
        window=spec.window,
        throughput_mb_s=res.throughput_mb_per_sec,
        throughput_msgs_s=res.throughput_msgs_per_sec,
        mean_latency_us=res.mean_latency_us,
        p99_latency_us=res.percentile_latency_us(99),
        completed=res.completed,
        wire_bytes=counters.get(f"substrate.{backend}.tx_bytes", 0),
        wire_msgs=counters.get(f"substrate.{backend}.tx_msgs", 0),
    )


def sweep(spec: RunSpec, max_window: int = 1024, min_completions: int = 400,
          saturation_gain: float = 1.08, latency_blowup: float = 12.0,
          substrate_params: Optional[CostModel] = None,
          workers: Optional[int] = None) -> list[Fig8Point]:
    """Sweep windows 1, 2, 4, ... until saturation (§4.1's load sweep).

    Stops when doubling the window no longer buys ``saturation_gain``
    in throughput, or when latency exceeds ``latency_blowup`` x the
    floor — the region past the knee carries no information.

    ``workers`` defaults to ``spec.workers``.  With more than one, the
    next ``workers`` windows are evaluated *speculatively* in parallel
    (each point is an independent, deterministic simulation) and the
    sequential stopping rule is then applied to them in window order —
    the returned points are identical to a ``workers=1`` sweep;
    past-the-knee speculation is discarded.
    """
    from repro.harness.parallel import run_points

    nworkers = workers if workers is not None else spec.workers
    points: list[Fig8Point] = []
    floor_latency: Optional[float] = None
    window = 1
    wave_size = max(1, int(nworkers))
    while window <= max_window:
        wave = []
        w = window
        while w <= max_window and len(wave) < wave_size:
            wave.append((spec.replace(window=w), min_completions,
                         substrate_params))
            w *= 2
        window = w
        for p in run_points(point, wave, workers=nworkers):
            points.append(p)
            if floor_latency is None and p.completed > 0:
                floor_latency = p.mean_latency_us
            if len(points) >= 3 and points[-2].throughput_mb_s > 0:
                gain = p.throughput_mb_s / points[-2].throughput_mb_s
                blowup = (floor_latency is not None
                          and p.mean_latency_us > latency_blowup * floor_latency)
                if gain < saturation_gain or blowup:
                    return points
    return points


def knee(points: list[Fig8Point]) -> Fig8Point:
    """The saturation point: maximum throughput over the sweep."""
    return max(points, key=lambda p: p.throughput_mb_s)


def floor(points: list[Fig8Point]) -> Fig8Point:
    """The unloaded-latency point (window = 1)."""
    return min(points, key=lambda p: p.window)
