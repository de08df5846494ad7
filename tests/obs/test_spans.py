"""Unit tests for the span recorder (repro.obs.spans)."""

from repro.core import AcuerdoCluster
from repro.obs.export import timeline
from repro.obs.spans import PHASES, SpanRecorder
from repro.sim import Engine, ms, us
from repro.sim.trace import Tracer
from repro.workloads.openloop import OpenLoopClient


def _recorder():
    return SpanRecorder(tracer=Tracer())


def test_exact_sum_and_segment_order():
    rec = _recorder()
    payload = {"op": "put"}
    rec.begin(payload, 100)
    rec.mark(payload, "propose", 150)
    rec.mark(payload, "wire", 400)
    rec.mark(payload, "accept", 700)
    span = rec.finish(payload, 1000)
    assert span.start_ns == 100 and span.end_ns == 1000
    assert [s.phase for s in span.segments] == [
        "propose", "wire", "accept", "deliver"]
    assert sum(s.duration_ns for s in span.segments) == span.duration_ns
    # Segments tile the span contiguously.
    prev = span.start_ns
    for seg in span.segments:
        assert seg.start_ns == prev
        prev = seg.end_ns
    assert prev == span.end_ns


def test_earliest_mark_per_phase_wins():
    rec = _recorder()
    p = object()
    rec.begin(p, 0)
    rec.mark(p, "accept", 900)   # second replica
    rec.mark(p, "accept", 300)   # first replica — defines the phase
    span = rec.finish(p, 1000)
    assert span.phase_bounds("accept") == (0, 300)


def test_marks_clamped_into_span():
    rec = _recorder()
    p = object()
    rec.begin(p, 500)
    rec.mark(p, "propose", 100)    # before begin -> clamps to 500
    rec.mark(p, "commit", 99999)   # after finish -> clamps to end
    span = rec.finish(p, 800)
    assert span.phase_bounds("propose") == (500, 500)
    assert span.phase_bounds("commit") == (500, 800)
    assert sum(s.duration_ns for s in span.segments) == 300


def test_same_ns_marks_break_ties_in_phase_order():
    rec = _recorder()
    p = object()
    rec.begin(p, 0)
    # Reverse insertion order; canonical PHASES order must win the tie.
    rec.mark(p, "commit", 50)
    rec.mark(p, "accept", 50)
    rec.mark(p, "propose", 50)
    span = rec.finish(p, 60)
    phases = [s.phase for s in span.segments]
    assert phases == ["propose", "accept", "commit", "deliver"]


def test_bind_aliases_carrier_to_payload_span():
    rec = _recorder()
    payload, carrier = object(), object()
    rec.begin(payload, 0)
    rec.bind(carrier, payload)
    rec.mark(carrier, "nic_tx", 10)
    # finish() accepts the carrier too (record_delivery sees wire objects).
    span = rec.finish(carrier, 100)
    assert span is not None
    assert span.phase_bounds("nic_tx") == (0, 10)
    assert rec.open_spans == 0


def test_unbound_marks_and_double_finish_are_noops():
    rec = _recorder()
    rec.mark(object(), "wire", 10)          # never begun: dropped
    p = object()
    rec.begin(p, 0)
    rec.finish(p, 10)
    assert rec.finish(p, 20) is None        # already closed
    assert len(rec.messages) == 1


def test_rebegin_keeps_original_start():
    rec = _recorder()
    p = object()
    rec.begin(p, 100)
    rec.begin(p, 500)  # client retry of the same object
    span = rec.finish(p, 1000)
    assert span.start_ns == 100


def test_discard_unregisters_payload_and_carriers():
    rec = _recorder()
    payload, carrier = object(), object()
    rec.begin(payload, 0)
    rec.bind(carrier, payload)
    rec.discard(payload)
    assert rec.open_spans == 0
    assert rec.finish(carrier, 10) is None


def test_finish_samples_tracer():
    tracer = Tracer()
    rec = SpanRecorder(tracer=tracer)
    for i in range(3):
        p = object()
        rec.begin(p, 0)
        rec.finish(p, 100 * (i + 1))
    assert tracer.get("obs.messages_traced") == 3
    assert tracer.series("obs.delivery_latency_ns") == [100, 200, 300]
    assert [s.duration_ns for s in rec.messages] == [100, 200, 300]


def test_side_event_cap_counts_drops():
    rec = _recorder()
    rec.MAX_SIDE_EVENTS = 2
    for i in range(4):
        rec.nic_tx(0, "data", i, i + 1, 64)
    assert len(rec.nic_events) == 2
    assert rec.dropped_side_events == 2


def test_phase_means_averages_across_spans():
    rec = _recorder()
    for end in (100, 300):
        p = object()
        rec.begin(p, 0)
        rec.mark(p, "propose", 50)
        rec.finish(p, end)
    means = rec.phase_means()
    assert means["propose"] == 50.0
    assert means["deliver"] == ((100 - 50) + (300 - 50)) / 2


def test_phases_cover_the_critical_path_in_order():
    # The canonical order the exact-sum segmentation sorts ties by.
    assert PHASES[0] == "submit"
    assert PHASES[-1] == "deliver"
    for p in ("propose", "nic_tx", "wire", "deposit", "poll_notice",
              "accept", "quorum", "commit"):
        assert p in PHASES


def test_attached_recorder_changes_no_event_or_counter():
    """Idle Acuerdo replicas push heartbeats as trains whose NIC
    intervals are recorded when they are caught up, not when posted:
    the recorder sees every one of them, in start order once exported,
    and attaching it changes neither what runs nor what is counted."""
    def run(record):
        engine = Engine(seed=5)
        rec = SpanRecorder(tracer=Tracer()) if record else None
        if record:
            engine.attach(recorder=rec)
        cluster = AcuerdoCluster(engine, 3)
        cluster.preseed_leader(0)
        cluster.start()
        client = OpenLoopClient(cluster, period_ns=us(15), message_size=64)
        client.start()
        engine.run(until=ms(2))
        client.stop()
        return (engine.events_executed,
                sorted(cluster.substrate_counters().items())), rec

    bare, _ = run(False)
    traced, rec = run(True)
    assert traced == bare
    assert len(rec.nic_events) == dict(traced[1])["substrate.rdma.tx_msgs"]
    starts = [ev["start_ns"] for ev in timeline(rec)["nic_events"]]
    assert starts == sorted(starts)
