"""One-call span capture: run a :class:`~repro.harness.runspec.RunSpec`
with tracing on and collect spans + metrics + exportable documents.

This is the engine behind ``repro trace`` and the span-based
latency-anatomy tooling: prepare the system the spec names through the
shared :func:`~repro.harness.factory.prepare` (farms:
:func:`~repro.shard.parallel.prepare_farm`) — so a trace honours the
spec's fault schedules exactly as every other driver does — drive the
spec's workload for ``duration_ms`` of simulated time with a
:class:`~repro.obs.spans.SpanRecorder` attached, then fold the tracer
and substrate counters into one :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.monitors import finish_monitors
from repro.obs.export import chrome_trace, timeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import MessageSpan, SpanRecorder


@dataclass
class CaptureResult:
    """Everything one traced run produced."""

    spec: Any                     # the (capture-enabled) RunSpec that ran
    recorder: SpanRecorder
    metrics: MetricsRegistry
    result: Any = None            # workload result (ClosedLoopResult) if any
    #: Safety violations observed by the runtime monitors (populated
    #: when the spec set ``check_invariants``; empty otherwise).
    violations: tuple = ()

    @property
    def messages(self) -> list[MessageSpan]:
        return self.recorder.messages

    def _meta(self, metadata: Optional[dict]) -> dict:
        meta = {"spec": self.spec.to_dict()}
        if metadata:
            meta.update(metadata)
        return meta

    def chrome(self, metadata: Optional[dict] = None) -> dict:
        """The run as a Chrome-trace (Perfetto-loadable) document."""
        return chrome_trace(self.recorder, metadata=self._meta(metadata))

    def timeline(self, metadata: Optional[dict] = None) -> dict:
        """The run as a plain-JSON timeline document with metrics."""
        return timeline(self.recorder, metrics=self.metrics.snapshot(),
                        metadata=self._meta(metadata))


def capture_run(spec: Any, *, min_completions: Optional[int] = None,
                substrate_params: Any = None) -> CaptureResult:
    """Run ``spec`` with span capture forced on and return the capture.

    ``min_completions`` (closed-loop workloads only) ends the run early
    once that many client completions have been measured; the sim-time
    budget is always ``spec.duration_ms``.
    """
    from repro.harness.factory import prepare
    from repro.sim.engine import ms, us

    spec = spec.replace(capture_spans=True)
    if spec.shards > 1:
        return _capture_sharded(spec)
    system = prepare(spec, substrate_params=substrate_params)
    engine = system.engine

    result = None
    if spec.workload == "openloop":
        from repro.workloads.openloop import OpenLoopClient

        client = OpenLoopClient(system, period_ns=us(5),
                                message_size=spec.payload_bytes)
        client.start()
        engine.run(until=engine.now + ms(spec.duration_ms))
        client.stop()
    else:
        from repro.workloads.closedloop import ClosedLoopClient

        payload_fn = None
        msg_size = spec.payload_bytes
        if spec.workload == "ycsb":
            from repro.workloads.ycsb import YcsbLoadWorkload

            value_size = max(1, spec.payload_bytes - 8)
            wl = YcsbLoadWorkload(engine, record_count=2_000,
                                  value_size=value_size)
            ops = [wl.next_op() for _ in range(4096)]

            def payload_fn(i: int) -> Any:
                return ops[i % len(ops)]

            msg_size = 8 + value_size
        client = ClosedLoopClient(system, window=spec.window,
                                  message_size=msg_size,
                                  payload_fn=payload_fn)
        client.start()
        chunk = ms(1)
        deadline = engine.now + ms(spec.duration_ms)
        while engine.now < deadline and (
                min_completions is None
                or len(client.latencies) < min_completions):
            engine.run(until=min(deadline, engine.now + chunk))
            chunk = min(chunk * 2, ms(16))
        client.stop()
        result = client.result()
    # Short drain so in-flight messages reach delivery and close their
    # spans (open spans would otherwise be dropped from the export).
    engine.run(until=engine.now + ms(1))

    metrics = MetricsRegistry()
    metrics.ingest_tracer(engine.trace)
    metrics.ingest_engine(engine)
    if getattr(system, "substrate", None) is not None:
        metrics.ingest_substrate(system.substrate)
    violations = tuple(finish_monitors(engine, metrics))
    return CaptureResult(spec=spec, recorder=engine.obs, metrics=metrics,
                         result=result, violations=violations)


def _capture_sharded(spec: Any) -> CaptureResult:
    """The shard-farm capture path: ``spec.shards`` groups behind the
    router, driven by the aggregate Poisson/Zipfian arrival process
    (10⁴ users at 10⁵ req/s unless the spec names its own).

    Spans and process/NIC events come out tagged with the groups'
    ``shard.<g>.*`` identities (labels like ``shard.3.acuerdo.msg``),
    so the exported trace separates per shard; per-shard routing and
    substrate counters land in the metrics under ``shard.<g>.*``.
    """
    from repro.harness.shardsweep import farm_group_config
    from repro.shard.parallel import drive_farm, prepare_farm

    load = spec.replace(users=spec.users or 10_000,
                        arrival_rate=spec.arrival_rate or 100_000.0)
    dep, client = prepare_farm(load, 0, spec.shards, farm_group_config(spec))
    engine = dep.engine
    drive_farm(dep, client, spec.duration_ms)

    metrics = MetricsRegistry()
    metrics.ingest_tracer(engine.trace)
    metrics.ingest_engine(engine)
    dep.metrics(metrics)
    violations = tuple(finish_monitors(engine, metrics))
    return CaptureResult(spec=spec, recorder=engine.obs, metrics=metrics,
                         result=None, violations=violations)
