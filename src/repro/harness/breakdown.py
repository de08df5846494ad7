"""Per-message latency breakdowns (where do the 10 µs go?).

:class:`LatencyAnatomy` derives each probe message's stage milestones —
client submit, leader broadcast, follower acceptance, quorum commit,
client acknowledgment — from the span recorder (:mod:`repro.obs`) on
``engine.probe``, the same instrumentation ``repro trace`` exports, so
the anatomy and the Chrome trace can never disagree about where time
went.

Used by the ``latency_anatomy`` example and the calibration tests to
keep the cost model honest about *where* time is spent, not just the
total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.spans import MessageSpan, SpanRecorder
from repro.sim.engine import Engine

_PROBE_PREFIX = "probe."


@dataclass
class Stages:
    """Timestamps (ns) of one message's milestones."""

    submitted: int = 0
    broadcast: Optional[int] = None        # left the leader's ring
    first_accept: Optional[int] = None     # earliest follower acceptance
    quorum_accept: Optional[int] = None    # acceptance reaching quorum
    committed: Optional[int] = None        # leader commit
    acked: Optional[int] = None            # client callback

    def rows(self) -> list[tuple[str, float]]:
        """(stage, elapsed µs since submit) rows, in order."""
        out = []
        for name in ("broadcast", "first_accept", "quorum_accept",
                     "committed", "acked"):
            v = getattr(self, name)
            if v is not None:
                out.append((name, (v - self.submitted) / 1000.0))
        return out


class _ProbeRecorder(SpanRecorder):
    """A :class:`SpanRecorder` that also keeps the *raw* milestone list
    of every finished span.

    The segment tree retains only the earliest mark per phase
    (critical-path semantics); the anatomy additionally wants the
    *second* follower acceptance (quorum for n=3), so it needs every
    accept mark, not just the first.
    """

    def __init__(self, engine: Any = None, tracer: Any = None):
        super().__init__(engine, tracer)
        self.raw_marks: dict[str, list[tuple[int, str]]] = {}

    def finish(self, payload: Any, t: int) -> Optional[MessageSpan]:
        rec = self._open.get(id(payload))
        if rec is not None:
            self.raw_marks[rec.label] = list(rec.marks)
        return super().finish(payload, t)


class LatencyAnatomy:
    """Per-message stage milestones for an AcuerdoCluster, from spans.

    Probes travel the exact production path: the milestones come from
    the same ``engine.probe``-gated hooks every system carries (see
    :mod:`repro.obs.spans`), which record host-side only — attaching
    the recorder adds zero simulated time, so an instrumented run's
    timeline is bit-identical to a plain one.
    """

    def __init__(self, cluster: Any):
        self.cluster = cluster
        self.engine: Engine = cluster.engine
        self._stages: dict[int, Stages] = {}
        recorder = getattr(self.engine, "obs", None)
        if recorder is None:
            recorder = _ProbeRecorder(self.engine)
        self.recorder: SpanRecorder = recorder
        self._collected = 0

    @property
    def stages(self) -> dict[int, Stages]:
        """Probe id → :class:`Stages`, refreshed from finished spans."""
        self._collect()
        return self._stages

    def probe(self, probe_id: int, payload, size: int = 10) -> None:
        """Submit one instrumented message through the cluster."""
        st = Stages(submitted=self.engine.now)
        self._stages[probe_id] = st
        # Open the span under a recognisable label before submit();
        # the cluster's own obs_begin is then an idempotent re-begin.
        self.recorder.begin(payload, self.engine.now,
                            label=f"{_PROBE_PREFIX}{probe_id}")

        def on_commit(hdr):
            st.acked = self.engine.now

        if not self.cluster.submit(payload, size, on_commit):
            self.recorder.discard(payload)

    # ------------------------------------------------------------ collection

    def _collect(self) -> None:
        messages = self.recorder.messages
        raw = getattr(self.recorder, "raw_marks", {})
        for span in messages[self._collected:]:
            if not span.label.startswith(_PROBE_PREFIX):
                continue
            try:
                pid = int(span.label[len(_PROBE_PREFIX):])
            except ValueError:
                continue
            st = self._stages.get(pid)
            if st is None:
                continue
            marks = raw.get(span.label)
            if marks is not None:
                self._fill_from_marks(st, marks)
            else:
                self._fill_from_span(st, span)
        self._collected = len(messages)

    @staticmethod
    def _fill_from_marks(st: Stages, marks: list[tuple[int, str]]) -> None:
        proposes = sorted(t for t, p in marks if p == "propose")
        accepts = sorted(t for t, p in marks if p == "accept")
        commits = sorted(t for t, p in marks if p == "commit")
        if proposes:
            st.broadcast = proposes[0]
        if accepts:
            st.first_accept = accepts[0]
            if len(accepts) > 1:
                st.quorum_accept = accepts[1]
        if commits:
            st.committed = commits[0]

    @staticmethod
    def _fill_from_span(st: Stages, span: MessageSpan) -> None:
        # A foreign recorder (no raw marks) still yields the earliest
        # milestone per phase: each segment *ends* at its phase's mark.
        for phase, field in (("propose", "broadcast"),
                             ("accept", "first_accept"),
                             ("quorum", "quorum_accept"),
                             ("commit", "committed")):
            bounds = span.phase_bounds(phase)
            if bounds is not None:
                setattr(st, field, bounds[1])

    # --------------------------------------------------------------- render

    def render(self) -> str:
        """Average stage-elapsed table across all probes."""
        from repro.harness.render import render_table

        names = ("broadcast", "first_accept", "quorum_accept", "committed", "acked")
        sums: dict[str, list[float]] = {n: [] for n in names}
        for st in self.stages.values():
            for name, el in st.rows():
                sums[name].append(el)
        rows = [[n, round(sum(v) / len(v), 2) if v else float("nan"), len(v)]
                for n, v in sums.items()]
        return render_table("Acuerdo latency anatomy (us since client submit)",
                            ["stage", "mean_us", "samples"], rows)
