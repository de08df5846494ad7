"""Per-message span trees over the simulated critical path.

A *span* covers one client payload from ``submit()`` to its first
app-level delivery.  Instrumentation hooks along the way (protocol
nodes, NIC/QP, TCP stack, receiver poll loops) report *milestones* —
``(phase, sim-ns)`` marks — and :meth:`SpanRecorder.finish` turns them
into contiguous :class:`Segment` children:

- only the **earliest** mark per phase is kept (critical-path
  semantics: the first replica to reach a phase defines it);
- marks are clamped into ``[begin, finish]`` and sorted by
  ``(time, canonical phase order)``;
- consecutive cut points become half-open segments ``[prev, cut)``
  labelled with the phase that *ends* at the cut, and a final
  ``deliver`` segment runs to the finish time.

By construction the children durations sum **exactly** (integer sim-ns)
to the span duration, which is also the value sampled into the tracer
as ``obs.delivery_latency_ns`` — the invariant the property tests and
the Chrome-trace validator both assert.

Correlation: substrate-level hooks see wire-level carrier objects (an
Acuerdo ``Message``, a Zab ``("PROPOSE", ...)`` tuple), not the client
payload.  Protocols call :meth:`SpanRecorder.bind` to alias a carrier
to the payload's record; marks against either object land on the same
span.  Marks for unbound objects (SST rows, heartbeats, acks) are
dropped in O(1) — a dict miss.

The recorder subscribes to the engine's one observation attachment,
``engine.probe``; every hook in the simulator is gated by ``engine.probe
is not None``, so runs with nothing attached are bit-identical to the
pre-observability tree (see package docstring).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

#: Canonical phase order along the critical path.  Used as the sort
#: tie-breaker when two milestones land on the same nanosecond, and by
#: renderers to lay phases out in pipeline order.
PHASES = (
    "submit",       # client payload handed to the serving node
    "propose",      # leader put it on the wire (ring send / PROPOSE / ACCEPT)
    "nic_tx",       # sender NIC finished serialising it onto the link
    "wire",         # propagation done, bits at the remote NIC
    "deposit",      # payload landed in remote memory (PCIe/DMA or kernel stack)
    "poll_notice",  # remote CPU first noticed it (poll loop / wakeup + drain)
    "accept",       # a follower accepted/logged it
    "ack",          # acknowledgment observed back at the coordinator
    "quorum",       # quorum of accepts established
    "commit",       # commit decision reached
    "deliver",      # first app-level delivery (span end)
)

_RANK = {p: i for i, p in enumerate(PHASES)}


class Segment(NamedTuple):
    """One contiguous slice of a message span (half-open, sim-ns)."""

    phase: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class MessageSpan(NamedTuple):
    """A finished span: one delivered message, segmented by phase."""

    msg_id: int
    label: str
    start_ns: int
    end_ns: int
    segments: tuple[Segment, ...]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def phase_bounds(self, phase: str) -> Optional[tuple[int, int]]:
        """``(start, end)`` of the named segment, or None if absent."""
        for seg in self.segments:
            if seg.phase == phase:
                return (seg.start_ns, seg.end_ns)
        return None

    def phase_durations(self) -> dict[str, int]:
        """Total ns per phase label (segments with equal labels merged)."""
        out: dict[str, int] = {}
        for seg in self.segments:
            out[seg.phase] = out.get(seg.phase, 0) + seg.duration_ns
        return out


class _OpenSpan:
    """Mutable in-flight record keyed by payload/carrier identity."""

    __slots__ = ("msg_id", "label", "t0", "marks", "keys", "refs")

    def __init__(self, msg_id: int, label: str, t0: int, payload: Any):
        self.msg_id = msg_id
        self.label = label
        self.t0 = t0
        self.marks: list[tuple[int, str]] = []
        #: every id() under which this record is registered (payload +
        #: bound carriers), so finish() can unregister all of them.
        self.keys: list[int] = [id(payload)]
        #: strong refs pinning those ids for the record's lifetime —
        #: without them a GC'd carrier could recycle an id mid-flight.
        self.refs: list[Any] = [payload]


class SpanRecorder:
    """Collects message spans plus NIC/process side-tracks.

    Attach with ``SpanRecorder(engine)``, which subscribes it to
    ``engine.probe``; ``engine.probe = None`` detaches every observer.
    All methods called from hot simulator paths (:meth:`mark` above
    all) are dict operations only.
    """

    #: side-track event cap — a runaway capture degrades to dropping
    #: NIC/process events (counted) rather than eating the host's RAM.
    MAX_SIDE_EVENTS = 200_000

    def __init__(self, engine: Any = None, tracer: Any = None):
        self.tracer = tracer if tracer is not None else (
            engine.trace if engine is not None else None)
        self.messages: list[MessageSpan] = []
        #: per-node NIC occupancy: (node_id, lane, start_ns, end_ns, bytes)
        self.nic_events: list[tuple[int, str, int, int, int]] = []
        #: process lifecycle: (kind, process_name, start_ns, end_ns)
        self.process_events: list[tuple[str, str, int, int]] = []
        self.dropped_side_events = 0
        self._open: dict[int, _OpenSpan] = {}
        self._next_id = 0
        if engine is not None:
            engine.attach(recorder=self)

    # ------------------------------------------------------------ span API

    def begin(self, payload: Any, t: int, label: Optional[str] = None) -> None:
        """Open a span for ``payload`` at sim-time ``t``.

        Re-begin of an already-open payload (a client retrying the same
        object during an election) keeps the original start: the span
        measures from the *first* submission, like the client does.
        """
        if id(payload) in self._open:
            return
        msg_id = self._next_id
        self._next_id = msg_id + 1
        rec = _OpenSpan(msg_id, label if label is not None else f"msg.{msg_id}",
                        int(t), payload)
        self._open[id(payload)] = rec

    def bind(self, carrier: Any, payload: Any) -> None:
        """Alias a wire-level ``carrier`` object to ``payload``'s span so
        substrate hooks (which only see the carrier) can mark it."""
        rec = self._open.get(id(payload))
        if rec is None:
            return
        key = id(carrier)
        if key in self._open:
            return
        self._open[key] = rec
        rec.keys.append(key)
        rec.refs.append(carrier)

    def mark(self, obj: Any, phase: str, t: int) -> None:
        """Record milestone ``phase`` at sim-time ``t`` for the span that
        ``obj`` (payload or bound carrier) belongs to.  Unknown objects
        are ignored — hooks never need to test whether a given wire
        object is part of a traced message."""
        rec = self._open.get(id(obj))
        if rec is not None:
            rec.marks.append((int(t), phase))

    def finish(self, payload: Any, t: int) -> Optional[MessageSpan]:
        """Close ``payload``'s span at its first delivery.

        Builds the segment tree (see module docstring), samples the span
        duration into the tracer as ``obs.delivery_latency_ns`` and
        returns the finished span.  Later deliveries of the same payload
        at other replicas find no open record and are no-ops.
        """
        rec = self._open.get(id(payload))
        if rec is None:
            return None
        for key in rec.keys:
            self._open.pop(key, None)
        t0 = rec.t0
        end = int(t)
        if end < t0:
            end = t0

        # Earliest mark per phase, clamped into [t0, end].
        first: dict[str, int] = {}
        for tm, phase in rec.marks:
            tt = t0 if tm < t0 else (end if tm > end else tm)
            cur = first.get(phase)
            if cur is None or tt < cur:
                first[phase] = tt
        cuts = sorted(first.items(), key=lambda kv: (kv[1], _RANK.get(kv[0], len(_RANK))))

        segments: list[Segment] = []
        prev = t0
        for phase, tt in cuts:
            segments.append(Segment(phase, prev, tt))
            prev = tt
        segments.append(Segment("deliver", prev, end))

        span = MessageSpan(rec.msg_id, rec.label, t0, end, tuple(segments))
        self.messages.append(span)
        if self.tracer is not None:
            self.tracer.count("obs.messages_traced")
            self.tracer.sample("obs.delivery_latency_ns", end - t0)
        return span

    def discard(self, payload: Any) -> None:
        """Drop an open span without finishing it (undelivered probe)."""
        rec = self._open.pop(id(payload), None)
        if rec is not None:
            for key in rec.keys:
                self._open.pop(key, None)

    # ----------------------------------------------------- side-track hooks

    def nic_tx(self, node_id: int, lane: str, start_ns: int, end_ns: int,
               wire_bytes: int) -> None:
        """Record one NIC egress occupancy interval (per-node track)."""
        if len(self.nic_events) >= self.MAX_SIDE_EVENTS:
            self.dropped_side_events += 1
            return
        self.nic_events.append((node_id, lane, int(start_ns), int(end_ns),
                                wire_bytes))

    def process_event(self, kind: str, name: str, start_ns: int,
                      end_ns: int) -> None:
        """Record a process lifecycle interval (deschedule, crash, ...)."""
        if len(self.process_events) >= self.MAX_SIDE_EVENTS:
            self.dropped_side_events += 1
            return
        self.process_events.append((kind, name, int(start_ns), int(end_ns)))

    # ---------------------------------------------------------- inspection

    @property
    def open_spans(self) -> int:
        """Distinct in-flight (begun, not finished) spans."""
        return len({id(rec) for rec in self._open.values()})

    def phase_means(self) -> dict[str, float]:
        """Mean ns per phase across all finished spans (render helper)."""
        totals: dict[str, int] = {}
        counts: dict[str, int] = {}
        for span in self.messages:
            for phase, dur in span.phase_durations().items():
                totals[phase] = totals.get(phase, 0) + dur
                counts[phase] = counts.get(phase, 0) + 1
        return {p: totals[p] / counts[p] for p in totals}
