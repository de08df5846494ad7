"""Observability layer: span tracing, metrics registry, trace export.

The simulator's performance argument — Acuerdo wins because fewer
one-sided writes sit between ``broadcast()`` and delivery (§4, Fig. 6/8)
— is only credible if the critical path is *observable*, not asserted.
This package makes it so:

- :mod:`repro.obs.spans` — :class:`SpanRecorder`, the per-message span
  tree recorded in sim-ns.  Instrumentation hooks throughout the stack
  (``sim.process``, ``rdma.nic``/``rdma.qp``, ``net.tcp``, every
  protocol node) report milestones through ``engine.probe``; the
  recorder turns them into contiguous phase segments whose durations sum *exactly* to
  the message's delivery latency.
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, the one naming
  scheme for ``Tracer`` counters, sample summaries and
  ``substrate.<backend>.*`` totals (flat ``dict[str, int | float]``,
  dotted names).
- :mod:`repro.obs.export` — Chrome-trace (``chrome://tracing`` /
  Perfetto) and plain-JSON timeline exporters plus the schema validator
  CI runs against ``repro trace`` output.
- :mod:`repro.obs.capture` — :func:`capture_run`, the one-call driver
  behind ``repro trace``: build a system from a
  :class:`~repro.harness.runspec.RunSpec`, run it with spans on, return
  spans + metrics ready for export.

One attachment, one gate: :class:`SpanRecorder` and the monitor
registry subscribe to the engine's one observation slot,
``engine.probe``, and every hook in the simulator loads it once and is
gated by ``probe is not None``.  With nothing attached no counter or
sample is recorded and no RNG stream is touched, so the golden per-protocol trace fingerprints
(``tests/substrate/test_golden_fingerprints.py``) stay bit-identical.
"""

from repro.obs.spans import (PHASES, MessageSpan, Segment, SpanRecorder)
from repro.obs.metrics import MetricsRegistry
from repro.obs.export import (chrome_trace, timeline, validate_chrome_trace,
                              validate_timeline)
from repro.obs.capture import CaptureResult, capture_run

__all__ = [
    "PHASES",
    "MessageSpan",
    "Segment",
    "SpanRecorder",
    "MetricsRegistry",
    "chrome_trace",
    "timeline",
    "validate_chrome_trace",
    "validate_timeline",
    "CaptureResult",
    "capture_run",
]
