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

Observers attach through one slot, :attr:`Engine.probe` (a
:class:`Probe`, None while nothing observes): every hook site loads it
once and tests it against None once, then calls a verb on it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, Optional

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


def _as_int_ns(value: Any, what: str) -> int:
    """Coerce a nanosecond quantity to int, rejecting fractional values.

    Nanoseconds are the base unit, so a float with a fractional part is
    a unit bug at the call site — it raises instead of silently
    truncating.  Shared by :meth:`Engine.schedule` and
    :meth:`Engine.schedule_at`.
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq} fn={getattr(self.fn, '__name__', self.fn)}{state}>"


def _ignore(*args: Any, **kwargs: Any) -> None:
    """The verb a :class:`Probe` binds where no subscriber listens."""


class Probe:
    """The one observation attachment, ``engine.probe``: the two
    subscribers that exist, a :class:`~repro.obs.spans.SpanRecorder`
    (the span verbs) and a :class:`~repro.monitors.MonitorRegistry`
    (the monitor verbs).  Each verb is bound once, to the subscriber's
    method or to :func:`_ignore`, so a hook's call adds no fan-out
    frame.  A delivery calls ``finish`` and ``note`` both."""

    SPAN_VERBS = ("begin", "bind", "mark", "finish", "nic_tx", "process_event")
    MONITOR_VERBS = ("register_group", "note")
    __slots__ = ("recorder", "registry") + SPAN_VERBS + MONITOR_VERBS

    def __init__(self, recorder: Any = None, registry: Any = None):
        self.recorder = recorder
        self.registry = registry
        for sub, verbs in ((recorder, self.SPAN_VERBS),
                           (registry, self.MONITOR_VERBS)):
            for verb in verbs:
                setattr(self, verb, _ignore if sub is None else getattr(sub, verb))


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
        self.events_executed: int = 0
        #: lifetime count of heappushes into the event heap: one per
        #: scheduled event (the benchmark reports it per commit).
        self.heap_pushes: int = 0
        # Heap entries are (time, created, seq, event, fn, args) tuples:
        # seq is unique, so tuple comparison resolves on the first three
        # ints and never calls into Event — the heap sift runs entirely
        # in C.  ``created`` never decreases as seq grows, so it is
        # redundant between ordinary events; it is in the key so that
        # schedule_backdated() can place an event among same-instant
        # events by the time it would have been scheduled.  The handler
        # and its args are preloaded into the entry so the run() loop
        # dispatches without per-event attribute lookups.
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
        #: the one observation attachment: a :class:`Probe`, or None
        #: while nothing observes.  Every hook site in the stack is
        #: gated by ``engine.probe is not None``, so an unobserved run
        #: does not execute a single extra tracer/RNG operation — the
        #: zero-cost-when-off guarantee the golden fingerprints pin.
        self.probe: Optional[Probe] = None
        #: adversarial-fault attachment point: a
        #: :class:`~repro.sim.byzantine.ByzantineInjector` (or None).
        #: Same contract — every substrate/ring interception site is
        #: gated by ``engine.byz is not None``, so byz-off runs stay
        #: bit-identical to the golden fingerprints.  Its own slot
        #: because the injector rewrites sends rather than observing.
        self.byz: Optional[Any] = None
        # Called before run() returns: whatever a subscriber elided up to
        # ``now`` is materialized before the caller reads any state.
        self._run_end: list[Callable[[], None]] = []

    # ---------------------------------------------------------------- probe

    def attach(self, recorder: Any = None, registry: Any = None) -> None:
        """Subscribe a span recorder and/or a monitor registry to
        :attr:`probe`; a subscriber replaces the one of its kind and
        keeps the other.  ``engine.probe = None`` detaches both."""
        probe = self.probe
        if probe is not None:
            recorder = recorder if recorder is not None else probe.recorder
            registry = registry if registry is not None else probe.registry
        self.probe = Probe(recorder, registry)

    @property
    def obs(self) -> Optional[Any]:
        """The attached span recorder or None (for end-of-run readers)."""
        return self.probe and self.probe.recorder

    @property
    def monitors(self) -> Optional[Any]:
        """The attached monitor registry or None (for end-of-run readers)."""
        return self.probe and self.probe.registry

    def at_run_end(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` before every :meth:`run` (and :meth:`step`)
        returns, once the clock stands where the caller will find it."""
        self._run_end.append(fn)

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
        ``Process._wake``).  Only the tie-break is backdated: ``time``
        must not precede the real clock.

        Implemented by rewinding the clock around :meth:`schedule_at`,
        which stays the single heap sink."""
        now = self.now
        if created > now:
            raise ValueError(f"cannot backdate to the future: {created} > now {now}")
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < now {now}")
        self.now = created
        try:
            return self.schedule_at(time, fn, *args)
        finally:
            self.now = now

    def _push_chain_abs(self, steps: list, dynamic: bool = False) -> None:
        # Residue of macro-event fusion (DESIGN.md §10) with no caller in
        # src/: bench/hosttrace.py, frozen outside ``benchmark`` PRs,
        # wraps this attribute by name.  It leaves together with that
        # patch line in the next ``benchmark`` PR.
        for time, fn, args in steps:
            self.schedule_at(time, fn, *args)

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
                for fn in self._run_end:
                    fn()
                return executed
            # One tuple unpack reads everything the loop body needs:
            # the handler and its args are preloaded at schedule time,
            # so the hot path never touches an Event attribute beyond
            # the cancellation flag.
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
        for fn in self._run_end:
            fn()
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
