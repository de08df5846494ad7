"""Open-loop client — the Table 1 load model, and the shard-farm
arrival process.

"Our experiment ... sets the leader to propose 10-byte messages in an
open loop" (§4.2): messages are issued at a fixed rate regardless of
acknowledgments, keeping the system busy across leader failures so that
election downtime is visible as a commit gap.

Beyond the paper's fixed-rate mode, the client optionally models an
*aggregate* arrival process: Poisson interarrivals (``arrival=
"poisson"``) superpose the independent request streams of many logical
users into one event per request, and Zipfian/uniform key selection
(``key_dist=``) gives each request a home key for a
:class:`~repro.shard.ShardRouter` to partition on.  Both modes draw
from one named, seeded RNG stream, so runs are deterministic and the
sharded harness and the single-group harnesses share this single
workload implementation.  The defaults (fixed rate, no keys) are
bit-identical to the historical client — they touch no RNG stream at
all.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Optional

from repro.protocols.base import BroadcastSystem
from repro.sim.engine import Engine

#: Supported interarrival models.
ARRIVALS = ("fixed", "poisson")

#: Supported key-selection models (None disables keyed payloads).
KEY_DISTS = (None, "uniform", "zipfian")


class OpenLoopClient:
    """Issues one message every ``period_ns`` until stopped.

    Parameters
    ----------
    arrival:
        ``"fixed"`` (default) spaces messages exactly ``period_ns``
        apart; ``"poisson"`` draws exponential interarrivals with mean
        ``period_ns`` — the superposition of many independent users.
    key_dist:
        None (default) keeps the historical ``("ol", i)`` payloads.
        ``"uniform"`` / ``"zipfian"`` draw a key in ``[0, key_space)``
        per message and emit ``("ol", i, key)`` payloads (a custom
        ``payload_fn`` is then called as ``payload_fn(i, key)``).
        Zipfian skew uses the YCSB generator with parameter ``skew``.
    rng_stream:
        Engine RNG stream feeding both draws; distinct clients must use
        distinct stream names to stay decorrelated.
    """

    def __init__(self, system: BroadcastSystem, period_ns: int, message_size: int,
                 payload_fn: Optional[Callable[..., Any]] = None,
                 arrival: str = "fixed", key_dist: Optional[str] = None,
                 key_space: int = 1024, skew: float = 0.99,
                 rng_stream: str = "openloop"):
        if arrival not in ARRIVALS:
            raise ValueError(f"unknown arrival model {arrival!r}; pick from {ARRIVALS}")
        if key_dist not in KEY_DISTS:
            raise ValueError(f"unknown key_dist {key_dist!r}; pick from {KEY_DISTS}")
        self.system = system
        self.engine: Engine = system.engine
        self.period_ns = period_ns
        self.message_size = message_size
        self.payload_fn = payload_fn
        self.arrival = arrival
        self.key_dist = key_dist
        self.key_space = key_space
        self.skew = skew
        # The RNG stream (and the zipfian state derived from it) exists
        # only when a randomised mode asks for it: the default client
        # consumes zero random draws, exactly as before.
        self._rng = (self.engine.rng(rng_stream)
                     if arrival == "poisson" or key_dist is not None else None)
        self._zipf = None
        if key_dist == "zipfian":
            from repro.workloads.ycsb import ZipfianGenerator

            self._zipf = ZipfianGenerator(key_space, skew, self._rng)
        self.sent = 0
        self.committed = 0
        # Unboxed 8 B samples: run records grow with operations.
        self.commit_times = array("q")
        self.latencies_ns = array("q")
        self.dropped = 0
        self._running = False
        # A tick is executing or scheduled.  Outlives _running by the one
        # already-scheduled tick that fires as a no-op after stop().
        self._armed = False

    def start(self) -> None:
        """Begin issuing messages at the configured rate.  A no-op while
        the tick loop is alive; after :meth:`stop`, the still-scheduled
        tick resumes the loop rather than a second loop starting beside
        it."""
        self._running = True
        if not self._armed:
            self._armed = True
            self._tick()

    def stop(self) -> None:
        """Stop issuing (in-flight messages may still commit).  The next
        already-scheduled tick still fires, as a no-op, and the schedule
        dies with it."""
        self._running = False

    def _gap(self) -> int:
        if self.arrival == "poisson":
            return max(1, int(self._rng.expovariate(1.0 / self.period_ns)))
        return self.period_ns

    def _next_key(self) -> int:
        if self._zipf is not None:
            return self._zipf.next()
        return self._rng.randrange(self.key_space)

    def _payload(self, i: int) -> Any:
        if self.key_dist is None:
            return self.payload_fn(i) if self.payload_fn is not None else ("ol", i)
        key = self._next_key()
        return (self.payload_fn(i, key) if self.payload_fn is not None
                else ("ol", i, key))

    def _tick(self) -> None:
        if not self._running:
            self._armed = False
            return
        i = self.sent
        self.sent += 1
        t0 = self.engine.now
        ok = self.system.submit(self._payload(i), self.message_size,
                                lambda _x: self._on_commit(t0))
        if not ok:
            # Open loop: no retries — the message is simply lost to the
            # election window (what makes downtime measurable).
            self.dropped += 1
        self.engine.schedule(self._gap(), self._tick)

    def _on_commit(self, t0: int) -> None:
        self.committed += 1
        self.commit_times.append(self.engine.now)
        self.latencies_ns.append(self.engine.now - t0)

    def longest_commit_gap(self) -> int:
        """Largest gap between consecutive commits — a downtime proxy."""
        if len(self.commit_times) < 2:
            return 0
        return max(b - a for a, b in zip(self.commit_times, self.commit_times[1:]))
