"""Discrete-event engine with a nanosecond clock and deterministic RNG streams.

The engine is a classic calendar-queue simulator: callbacks are scheduled
at absolute nanosecond timestamps and executed in ``(time, created,
seq)`` order: ``created`` is the time the event was scheduled and
``seq`` a monotonically increasing tie-breaker, so events due at the same
instant run in the order they were scheduled.  Because ties are
broken deterministically and all randomness flows through named
:meth:`Engine.rng` streams, a simulation is a pure function of its seed
and configuration — re-running it produces byte-identical traces.  The
determinism tests in ``tests/sim/test_determinism.py`` rely on this.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, Optional, Sequence

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


def chain_enabled_default() -> bool:
    """Whether macro-event fusion is on (the ``REPRO_CHAIN`` escape
    hatch: set ``REPRO_CHAIN=0`` to force every chain step onto the heap
    as its own event, for debugging and equivalence testing)."""
    return os.environ.get("REPRO_CHAIN", "1") != "0"


def _as_int_ns(value: Any, what: str) -> int:
    """Coerce a nanosecond quantity to int, rejecting fractional values.

    Nanoseconds are the base unit, so a float with a fractional part is
    a unit bug at the call site — it raises instead of silently
    truncating.  Shared by :meth:`Engine.schedule`,
    :meth:`Engine.schedule_at` and :meth:`Engine.schedule_chain`.
    """
    if type(value) is int:
        return value
    as_int = int(value)
    if as_int != value:
        raise ValueError(f"non-integral {what}: {value!r}")
    return as_int


def us(x: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(x * NS_PER_US)


def ms(x: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(x * NS_PER_MS)


def sec(x: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(x * NS_PER_SEC)


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Engine.schedule` and may be cancelled
    with :meth:`cancel` (cancellation is O(1): the event stays in the heap
    but is skipped when popped).  The engine tracks how many cancelled
    events its heap holds and compacts lazily, so cancellation-heavy
    workloads — timeout resets, election backoffs — never inflate the
    heap or slow :meth:`Engine.idle` to a full scan.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_engine", "_popped")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._engine: Optional["Engine"] = None
        self._popped = False

    def cancel(self) -> None:
        """Prevent this event from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        # Only count cancellations of events still sitting in a heap;
        # cancelling an event that already fired (or was compacted away)
        # must not skew the live count.
        if self._engine is not None and not self._popped:
            self._engine._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        # Kept for direct Event comparisons; the engine heap orders by
        # (time, created, seq) tuples so this never runs on the hot path.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq} fn={getattr(self.fn, '__name__', self.fn)}{state}>"


class _Chain:
    """A compiled macro-event: N steps sharing one heap entry.

    A chain occupies a single ``(time, created, seq, chain)`` heap slot
    keyed by its *current* step.  :meth:`Engine._exec_chain` walks the steps,
    advancing ``engine.now`` to each step's absolute time, and re-pushes
    the remainder (one heappush) whenever an interleaved event, the run
    horizon, an event budget, or :meth:`Engine.stop` must win first —
    so execution order is exactly what N separate heap entries would
    produce, for one push/pop instead of N in the common case.

    ``seq`` always holds the tie-break seq of the current step.  In
    *static* mode all N seqs are reserved consecutively at schedule
    time (matching a producer that calls ``schedule_at`` N times inside
    one event).  In *dynamic* mode each next step's seq is drawn from
    the live engine counter after the previous step returns (matching a
    self-rescheduling callback that allocates its successor while
    executing).  ``created`` follows the same rule: it is the time the
    current step was scheduled — the push time for every step of a
    static chain, the previous step's time for the later steps of a
    dynamic one.
    """

    __slots__ = ("steps", "index", "seq", "created", "dynamic", "cancelled",
                 "_engine", "_popped")

    def __init__(self, steps: list, seq: int, created: int, dynamic: bool):
        self.steps = steps  # [(abs_time_ns, fn, args), ...]
        self.index = 0
        self.seq = seq
        self.created = created
        self.dynamic = dynamic
        self.cancelled = False
        self._engine: Optional["Engine"] = None
        self._popped = False

    def cancel(self) -> None:
        """Prevent the remaining steps from firing (steps that already
        executed are unaffected); safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None and not self._popped:
            self._engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return (f"<Chain step {self.index}/{len(self.steps)}"
                f" t={self.steps[self.index][0] if self.index < len(self.steps) else '-'}"
                f" seq={self.seq}{state}>")


class _ChainFallback:
    """Cancellation handle for a chain scheduled with fusion disabled:
    wraps the per-step events so callers can cancel the tail uniformly."""

    __slots__ = ("events",)

    def __init__(self, events: list):
        self.events = events

    def cancel(self) -> None:
        for ev in self.events:
            ev.cancel()


class ChainBuilder:
    """Buffers ``schedule_at`` calls so a producer loop can emit them as
    one fused chain.

    Producers that schedule one event per destination (SST pushes, ring
    broadcasts, TCP fan-out) call :meth:`add` with the same absolute
    times they would have passed to ``schedule_at``, then
    :meth:`commit`.  Commit fuses iff fusion is enabled and the
    buffered times are non-decreasing (per-QP FIFO floors make this the
    overwhelmingly common case, but loss-as-delay can reorder); any
    other case falls back to individual ``schedule_at`` calls in the
    same order — either way the events consume identical tie-break
    seqs, so the choice is invisible to the simulation.

    A builder is reusable: commit drains the buffer.  Producers should
    commit in a ``finally`` block when the filling loop can raise
    (e.g. ``SendQueueFullError`` mid-broadcast) so buffered steps are
    never silently dropped.
    """

    __slots__ = ("_engine", "_steps")

    def __init__(self, engine: "Engine"):
        self._engine = engine
        self._steps: list = []

    def add(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Buffer ``fn(*args)`` at absolute nanosecond ``time``."""
        self._steps.append((time, fn, args))

    def commit(self):
        """Flush buffered steps: one fused chain when possible, else
        individual events.  Returns the chain (or the single event, or
        None when empty / fallen back)."""
        steps = self._steps
        if not steps:
            return None
        self._steps = []
        eng = self._engine
        if len(steps) == 1:
            t, fn, args = steps[0]
            return eng.schedule_at(t, fn, *args)
        if eng.chain_enabled:
            prev = steps[0][0]
            monotone = True
            for s in steps:
                if s[0] < prev:
                    monotone = False
                    break
                prev = s[0]
            if monotone:
                return eng._push_chain_abs(steps)
        for t, fn, args in steps:
            eng.schedule_at(t, fn, *args)
        return None


class Engine:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  All random streams handed out by :meth:`rng` are
        derived from it, so two engines with equal seeds and workloads
        evolve identically.
    """

    #: below this heap size, compaction is never worth the rebuild
    _COMPACT_MIN = 64

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now: int = 0
        #: lifetime count of events executed across all run()/step() calls;
        #: the harness surfaces it as ``engine.events`` in MetricsRegistry.
        #: Chain steps count individually, so the total is independent of
        #: whether fusion is on.
        self.events_executed: int = 0
        #: lifetime count of heappushes into the event heap — the
        #: machine-independent measure of what macro-event fusion saves
        #: (a fused N-step chain costs 1 push + 1 per deferral instead
        #: of N).
        self.heap_pushes: int = 0
        #: whether :meth:`schedule_chain` / :class:`ChainBuilder` fuse
        #: (``REPRO_CHAIN`` env, default on).  Producers also read this
        #: to pick between fused and per-event scheduling.
        self.chain_enabled: bool = chain_enabled_default()
        # Heap entries are (time, created, seq, event, fn, args) tuples:
        # seq is unique, so tuple comparison resolves on the first three
        # ints and never calls into Event — the heap sift runs entirely
        # in C.  ``created`` never decreases as seq grows, so it is
        # redundant between ordinary events; it is in the key so that
        # schedule_backdated() can place an event among same-instant
        # events by the time it would have been scheduled.  The handler
        # and its args are preloaded into the entry so the run() loop
        # dispatches without per-event attribute lookups; ``fn is None``
        # tags a compiled chain (kind-indexed dispatch).
        self._heap: list[tuple] = []
        self._seq: int = 0
        self._cancelled_in_heap: int = 0
        self._rngs: dict[str, random.Random] = {}
        self._stopped = False
        # ``created`` of the executing event; None between runs.
        self._born: Optional[int] = None
        #: ambient identity scope (see :meth:`scoped`): while set, every
        #: stream handed out by :meth:`rng` is prefixed with this label
        #: and processes constructed record :attr:`scope_group` as their
        #: group.  None (the default) reproduces the historical flat
        #: identity space bit-for-bit — single-group runs never pay for
        #: (or observe) the hierarchy.
        self.scope: Optional[str] = None
        self.scope_group: Optional[int] = None
        from repro.sim.trace import Tracer

        self.trace = Tracer()
        #: observability attachment point: a
        #: :class:`~repro.obs.spans.SpanRecorder` (or None).  Every
        #: instrumentation hook in the stack is gated by
        #: ``engine.obs is not None``, so a run without a recorder does
        #: not execute a single extra tracer/RNG operation — the
        #: zero-cost-when-off guarantee the golden fingerprints pin.
        self.obs: Optional[Any] = None
        #: runtime-invariant attachment point: a
        #: :class:`~repro.monitors.MonitorRegistry` (or None).  Same
        #: contract as :attr:`obs` — every protocol emission site is
        #: gated by ``engine.monitors is not None``, so runs without
        #: monitors execute no monitor code at all.
        self.monitors: Optional[Any] = None
        #: adversarial-fault attachment point: a
        #: :class:`~repro.sim.byzantine.ByzantineInjector` (or None).
        #: Same contract again — every substrate/ring interception site
        #: is gated by ``engine.byz is not None``, so byz-off runs stay
        #: bit-identical to the golden fingerprints.
        self.byz: Optional[Any] = None

    # ---------------------------------------------------------------- scope

    @contextmanager
    def scoped(self, group: int, label: Optional[str] = None) -> Iterator[None]:
        """Enter the hierarchical identity scope of consensus group
        ``group`` (a :class:`~repro.shard.ShardedDeployment` shard).

        While active, :meth:`rng` prefixes every stream name with the
        scope label (default ``shard.<group>``) and newly constructed
        :class:`~repro.sim.process.Process` instances take the label
        into their names and record ``group`` — so N groups built in
        one engine get N disjoint RNG stream families and unambiguous
        trace/span track names.  Scopes are construction-time ambient
        state only: nothing on the event hot path reads them.
        """
        prev = (self.scope, self.scope_group)
        self.scope = label if label is not None else f"shard.{group}"
        self.scope_group = group
        try:
            yield
        finally:
            self.scope, self.scope_group = prev

    # ------------------------------------------------------------------ RNG

    def rng(self, stream: str) -> random.Random:
        """Return the named random stream, creating it deterministically.

        Streams are independent of the order in which they are first
        requested: each is seeded from ``(master seed, stream name)``.
        Inside a :meth:`scoped` block the stream name is prefixed with
        the scope label, so identically named streams of different
        consensus groups stay decorrelated.
        """
        if self.scope is not None:
            stream = f"{self.scope}.{stream}"
        r = self._rngs.get(stream)
        if r is None:
            # String seeds hash with sha512 inside random.Random, so streams
            # stay decorrelated without depending on PYTHONHASHSEED.
            r = random.Random(f"{self.seed}|{stream}")
            self._rngs[stream] = r
        return r

    # ------------------------------------------------------------- schedule

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute nanosecond ``time``.

        ``time`` must be integral: a float with a fractional part is a
        unit bug at the call site (ns are the base unit), so it raises
        instead of silently truncating.
        """
        if type(time) is not int:
            time = _as_int_ns(time, "timestamp")
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < now {self.now}")
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        ev._engine = self
        heappush(self._heap, (time, self.now, seq, ev, fn, args))
        self.heap_pushes += 1
        return ev

    def schedule_backdated(self, created: int, time: int,
                           fn: Callable[..., Any], *args: Any) -> Event:
        """:meth:`schedule_at`, ordered among the events due at ``time``
        as if it had been called at ``created`` (<= now): after those
        scheduled up to and at ``created``, before those scheduled
        later.  A parked process materialises a poll this way — the
        unparked loop would have scheduled it at the tick before (see
        ``Process._wake``).

        Implemented by rewinding the clock around :meth:`schedule_at`,
        which stays the single per-event heap sink."""
        now = self.now
        self.now = created
        try:
            return self.schedule_at(time, fn, *args)
        finally:
            self.now = now

    def schedule_chain(self, steps: Sequence[tuple], *, dynamic: bool = False):
        """Schedule a precompiled macro-event: ``steps`` is a sequence of
        ``(offset_ns, fn, args)`` with offsets relative to ``now``,
        non-negative, integral and non-decreasing.  The whole chain
        occupies one heap entry; each step runs with ``now`` advanced to
        its absolute time, in exactly the order N separate
        ``schedule_at`` calls would have produced (see :class:`_Chain`
        for the interleaving and tie-break argument).

        ``dynamic=True`` allocates each next step's tie-break seq from
        the live counter after the previous step returns, for chains
        standing in for self-rescheduling callbacks (batched open-loop
        arrivals); the default reserves all seqs up front, for chains
        standing in for a producer scheduling N events at once.

        Returns a handle with ``cancel()`` (cancels remaining steps),
        or None for an empty ``steps``.  With fusion disabled
        (``REPRO_CHAIN=0``) every step becomes an ordinary event —
        identical behaviour for static chains; dynamic callers that
        need true tick-by-tick seq allocation when unfused should keep
        their own per-event path instead.
        """
        if not steps:
            return None
        now = self.now
        abs_steps = []
        prev = 0
        for off, fn, args in steps:
            off = _as_int_ns(off, "chain offset")
            if off < 0:
                raise ValueError(f"negative chain offset: {off}")
            if off < prev:
                raise ValueError(
                    f"chain offsets must be non-decreasing: {off} < {prev}")
            prev = off
            abs_steps.append((now + off, fn, args))
        if not self.chain_enabled:
            return _ChainFallback(
                [self.schedule_at(t, fn, *args) for t, fn, args in abs_steps])
        return self._push_chain_abs(abs_steps, dynamic=dynamic)

    def _push_chain_abs(self, steps: list, dynamic: bool = False) -> _Chain:
        """Producer fast path: push pre-validated ``(abs_time, fn, args)``
        steps as one chain.  Times must be integral, non-decreasing and
        not in the past — producers derive them from int cost arithmetic
        with FIFO floors, so only the past-check is re-verified here."""
        if steps[0][0] < self.now:
            raise ValueError(
                f"cannot schedule in the past: {steps[0][0]} < now {self.now}")
        base = self._seq
        self._seq = base + (1 if dynamic else len(steps))
        ch = _Chain(steps, base, self.now, dynamic)
        ch._engine = self
        heappush(self._heap, (steps[0][0], self.now, base, ch, None, None))
        self.heap_pushes += 1
        return ch

    def chain_builder(self) -> ChainBuilder:
        """Return a fresh :class:`ChainBuilder` bound to this engine."""
        return ChainBuilder(self)

    # -------------------------------------------------------- heap hygiene

    def _note_cancelled(self) -> None:
        """An in-heap event was cancelled; compact once dead weight
        exceeds half the heap (amortised O(1) per cancellation)."""
        self._cancelled_in_heap += 1
        if (len(self._heap) >= self._COMPACT_MIN
                and self._cancelled_in_heap * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify.  Pop order is defined by
        the ``(time, created, seq)`` key, not heap layout, so determinism
        is unaffected.

        Compaction mutates the heap *in place* (slice assignment, never
        rebinding ``self._heap``): :meth:`run` and :meth:`step` hold a
        local alias to the list, and cancel() — hence _compact() — can
        fire from inside an executing event."""
        live = []
        for entry in self._heap:
            ev = entry[3]
            if ev.cancelled:
                ev._popped = True
            else:
                live.append(entry)
        self._heap[:] = live
        heapify(self._heap)
        self._cancelled_in_heap = 0

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` nanoseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        if type(delay) is not int:
            delay = _as_int_ns(delay, "delay")
        return self.schedule_at(self.now + delay, fn, *args)

    # ------------------------------------------------------------------ run

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle.

        A one-event :meth:`run`: it shares run()'s pop loop (so cancelled
        events are skipped and accounted identically) and, like run(),
        clears a pending :meth:`stop` before executing.
        """
        return self.run(max_events=1) == 1

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the number executed.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so throughput computations
        over a fixed horizon are well defined.
        """
        # This is the hottest loop in the repository: every simulated
        # event in every sweep funnels through it.  heappop is bound
        # locally and cancelled pops skip straight back to the top
        # without re-testing the horizon.
        executed = 0
        heap = self._heap
        pop = heappop
        bounded = max_events is not None
        # int > float('inf') is always False, so an unbounded run uses
        # the same comparison as a bounded one without a None test per
        # event; a given ``until`` passes through exactly as before.
        horizon = float("inf") if until is None else until
        self._stopped = False
        while heap and not self._stopped:
            if bounded and executed >= max_events:
                self.events_executed += executed
                return executed
            # One tuple unpack reads everything the loop body needs:
            # the handler and its args are preloaded at schedule time,
            # so the hot path never touches an Event attribute beyond
            # the cancellation flag, and ``fn is None`` dispatches
            # chains without an isinstance/class test.
            time, born, _seq, ev, fn, args = heap[0]
            if ev.cancelled:
                pop(heap)
                ev._popped = True
                self._cancelled_in_heap -= 1
                continue
            if time > horizon:
                break
            pop(heap)
            ev._popped = True
            self._born = born
            if fn is None:
                executed += self._exec_chain(
                    ev, horizon, (max_events - executed) if bounded else -1)
                continue
            self.now = time
            fn(*args)
            executed += 1
        self.events_executed += executed
        if not self._stopped:
            # Drained up to the horizon: whoever acts next does so after
            # every event due by ``now`` (stop(), like a budget return,
            # leaves the caller where the last event left off).
            self._born = None
        if until is not None and self.now < until:
            self.now = until
        return executed

    @property
    def event_created_at(self) -> int:
        """Engine time at which the executing event was scheduled
        (``now`` between runs).  Events due at the same instant run in
        the order they were scheduled, so this tells a process whether a
        poll tick falling on ``now`` would have run before the caller
        (see ``Process.request_poll``)."""
        born = self._born
        return self.now if born is None else born

    def _exec_chain(self, chain: _Chain, horizon, budget: int) -> int:
        """Execute steps of a just-popped chain until it completes or must
        yield; returns the number of steps executed (``budget`` < 0 means
        unbounded).

        After each step the next step's ``(time, created, seq)`` is
        compared against the heap head: if any live-or-cancelled entry sorts
        earlier, or the horizon/budget/:meth:`stop` applies, the
        remainder is re-pushed as one entry and control returns to
        :meth:`run` — so fused execution is observably identical to the
        per-event schedule.
        """
        heap = self._heap
        steps = chain.steps
        n = len(steps)
        executed = 0
        i = chain.index
        seq = chain.seq
        dynamic = chain.dynamic
        while True:
            t, fn, args = steps[i]
            self.now = t
            fn(*args)
            executed += 1
            i += 1
            if i == n:
                return executed
            # The seq for step i is allocated only now, after step i-1
            # ran: in dynamic mode from the live counter (matching a
            # callback that schedules its successor while executing —
            # after any seqs its body consumed), in static mode from the
            # block reserved at schedule time.
            if dynamic:
                seq = self._seq
                self._seq = seq + 1
                self._born = chain.created = t
            else:
                seq += 1
            chain.index = i
            chain.seq = seq
            if chain.cancelled:
                # cancel() during a step: the remaining steps die with
                # the chain, which never re-enters the heap.
                return executed
            nt = steps[i][0]
            if (self._stopped
                    or (0 <= budget <= executed)
                    or nt > horizon
                    or (heap and heap[0][0] <= nt
                        and heap[0][:3] < (nt, chain.created, seq))):
                chain._popped = False
                heappush(heap, (nt, chain.created, seq, chain, None, None))
                self.heap_pushes += 1
                return executed

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing event returns."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def live_pending(self) -> int:
        """Number of not-yet-cancelled events in the heap."""
        return len(self._heap) - self._cancelled_in_heap

    def idle(self) -> bool:
        """True when no live events remain (O(1): tracked by counter,
        not a heap scan)."""
        return len(self._heap) == self._cancelled_in_heap
