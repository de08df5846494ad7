"""Closed-loop window client — the Fig. 8 load model.

"The client regulates the system load, ensuring that at most a fixed
number of messages (the window) are outstanding and unacknowledged."
(§4.1.)  At low windows the system shows its floor latency; as the
window grows, throughput rises until the knee where queueing takes over.

Latency is measured client-side: request → transport to the serving
node → commit → transport of the acknowledgment back.  The transport
hops use the system's ``client_hop_ns`` (one-sided-write cost for RDMA
systems, kernel-TCP cost for the others), with small jitter from a
dedicated random stream.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.protocols.base import BroadcastSystem
from repro.sim.engine import Engine


@dataclass
class ClosedLoopResult:
    """Outcome of one closed-loop run."""

    window: int
    sent: int
    completed: int
    duration_ns: int
    latencies_ns: Sequence[int]
    message_size: int

    @property
    def mean_latency_us(self) -> float:
        """Mean client-observed latency in microseconds."""
        if not self.latencies_ns:
            return float("nan")
        return sum(self.latencies_ns) / len(self.latencies_ns) / 1_000.0

    def percentile_latency_us(self, p: float) -> float:
        """Nearest-rank latency percentile (``p`` in [0, 100]), in us."""
        if not self.latencies_ns:
            return float("nan")
        s = sorted(self.latencies_ns)
        k = min(len(s) - 1, max(0, int(p / 100.0 * len(s))))
        return s[k] / 1_000.0

    @property
    def throughput_msgs_per_sec(self) -> float:
        """Completed messages per second of simulated time."""
        if self.duration_ns <= 0:
            return 0.0
        return self.completed / (self.duration_ns / 1e9)

    @property
    def throughput_mb_per_sec(self) -> float:
        """Goodput in MB/s of committed payload bytes — the Fig. 8 x-axis."""
        return self.throughput_msgs_per_sec * self.message_size / 1e6


class ClosedLoopClient:
    """Drives one BroadcastSystem with a fixed window of outstanding
    messages and records client-observed latency."""

    def __init__(self, system: BroadcastSystem, window: int, message_size: int,
                 payload_fn: Optional[Callable[[int], Any]] = None,
                 warmup: int = 0):
        self.system = system
        self.engine: Engine = system.engine
        self.window = window
        self.message_size = message_size
        self.payload_fn = payload_fn or (lambda i: ("cl", i))
        self.warmup = warmup
        self._rng = self.engine.rng("client.closedloop")
        self.sent = 0
        self.completed = 0
        # One unboxed 8 B sample per completion (run records grow with
        # operations, so they are columns, not lists of int objects).
        self.latencies = array("q")
        self._running = False
        self._started_at = 0
        self._stopped_at: Optional[int] = None

    # ------------------------------------------------------------------ run

    def start(self) -> None:
        """Open the window (a no-op while the loop is running).  The
        engine must be run by the caller."""
        if self._running:
            return
        self._running = True
        self._started_at = self.engine.now
        for _ in range(self.window):
            self._send_next()

    def stop(self) -> None:
        """Close the loop: in-flight messages may still complete but no
        new ones are issued."""
        self._running = False
        self._stopped_at = self.engine.now

    def _hop(self) -> int:
        base = self.system.client_hop_ns
        return base + self._rng.randrange(max(1, base // 8))

    def _send_next(self) -> None:
        if not self._running:
            return
        i = self.sent
        self.sent += 1
        t0 = self.engine.now
        # Request travels client -> serving node.
        self.engine.schedule(self._hop(), self._submit, i, t0)

    def _submit(self, i: int, t0: int, retries: int = 0) -> None:
        ok = self.system.submit(self.payload_fn(i), self.message_size,
                                lambda _x, i=i, t0=t0: self._on_commit(i, t0))
        if not ok:
            # No leader (mid-election): back off and retry, as a real
            # client library would.
            self.engine.schedule(self.system.client_hop_ns * 4,
                                 self._submit, i, t0, retries + 1)

    def _on_commit(self, i: int, t0: int) -> None:
        # Acknowledgment travels back to the client.
        self.engine.schedule(self._hop(), self._acked, i, t0)

    def _acked(self, i: int, t0: int) -> None:
        self.completed += 1
        if self.completed > self.warmup:
            self.latencies.append(self.engine.now - t0)
        self._send_next()

    # ---------------------------------------------------------------- result

    def result(self) -> ClosedLoopResult:
        """Snapshot the run into an immutable result record."""
        end = self._stopped_at if self._stopped_at is not None else self.engine.now
        return ClosedLoopResult(
            window=self.window,
            sent=self.sent,
            completed=self.completed,
            duration_ns=max(1, end - self._started_at),
            latencies_ns=self.latencies,
            message_size=self.message_size,
        )

    def run_for(self, duration_ns: int) -> ClosedLoopResult:
        """Convenience: start, run the engine, stop, return the result."""
        self.start()
        self.engine.run(until=self.engine.now + duration_ns)
        self.stop()
        return self.result()
