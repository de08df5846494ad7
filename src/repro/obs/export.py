"""Trace exporters: Chrome-trace JSON and a plain-JSON timeline.

Two serialisations of the same :class:`~repro.obs.spans.SpanRecorder`
contents:

- :func:`chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and Perfetto.  Messages are one "process"
  (pid 1) with one thread per message; NIC egress occupancy (pid 2)
  and process lifecycle events (pid 3) get their own tracks.
  Timestamps/durations are microsecond floats as the format requires,
  but every ``X`` event also carries exact integer sim-ns in its
  ``args`` (``start_ns``/``dur_ns``) so the exact-sum invariant
  survives serialisation.
- :func:`timeline` — a stable, schema-tagged plain-JSON document for
  programmatic consumers (and for diff-friendly golden tests).

Both embed a ``schema`` tag; :func:`validate_chrome_trace` /
:func:`validate_timeline` check structure *and* the invariant that per
message the phase-segment durations sum exactly to the span duration.
CI runs the validator over ``repro trace`` output via
``python -m repro.obs.export <file.json>``.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from repro.obs.spans import SpanRecorder

CHROME_SCHEMA = "repro.obs.chrome/v1"
TIMELINE_SCHEMA = "repro.obs.timeline/v1"

_PID_MESSAGES = 1
_PID_NIC = 2
_PID_PROCESS = 3


def _us(ns: int) -> float:
    """Sim-ns to the microsecond floats the trace-event format wants."""
    return ns / 1000.0


def _nic_in_start_order(recorder: SpanRecorder) -> list[tuple]:
    """NIC intervals by start time.  Recording order is posting order,
    and a heartbeat push materialized after the fact (repro.core.trains)
    is recorded when it is caught up, not when it was posted."""
    return sorted(recorder.nic_events, key=lambda ev: ev[2])


def chrome_trace(recorder: SpanRecorder,
                 metadata: Optional[Mapping[str, Any]] = None) -> dict:
    """Serialise a recorder to a Chrome-trace (Trace Event Format) dict."""
    events: list[dict] = [
        {"ph": "M", "pid": _PID_MESSAGES, "name": "process_name",
         "args": {"name": "messages"}},
        {"ph": "M", "pid": _PID_NIC, "name": "process_name",
         "args": {"name": "nic"}},
        {"ph": "M", "pid": _PID_PROCESS, "name": "process_name",
         "args": {"name": "processes"}},
    ]

    for span in recorder.messages:
        events.append({"ph": "M", "pid": _PID_MESSAGES, "tid": span.msg_id,
                       "name": "thread_name", "args": {"name": span.label}})
        events.append({
            "name": span.label, "cat": "message", "ph": "X",
            "pid": _PID_MESSAGES, "tid": span.msg_id,
            "ts": _us(span.start_ns), "dur": _us(span.duration_ns),
            "args": {"msg_id": span.msg_id, "start_ns": span.start_ns,
                     "dur_ns": span.duration_ns},
        })
        for seg in span.segments:
            events.append({
                "name": seg.phase, "cat": "phase", "ph": "X",
                "pid": _PID_MESSAGES, "tid": span.msg_id,
                "ts": _us(seg.start_ns), "dur": _us(seg.duration_ns),
                "args": {"msg_id": span.msg_id, "start_ns": seg.start_ns,
                         "dur_ns": seg.duration_ns},
            })

    nic_tids: dict[tuple[int, str], int] = {}
    for node_id, lane, start_ns, end_ns, wire_bytes in _nic_in_start_order(recorder):
        tid = nic_tids.get((node_id, lane))
        if tid is None:
            tid = len(nic_tids)
            nic_tids[(node_id, lane)] = tid
            events.append({"ph": "M", "pid": _PID_NIC, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": f"node{node_id}.{lane}"}})
        events.append({
            "name": "tx", "cat": "nic", "ph": "X", "pid": _PID_NIC, "tid": tid,
            "ts": _us(start_ns), "dur": _us(end_ns - start_ns),
            "args": {"start_ns": start_ns, "dur_ns": end_ns - start_ns,
                     "wire_bytes": wire_bytes},
        })

    proc_tids: dict[str, int] = {}
    for kind, name, start_ns, end_ns in recorder.process_events:
        tid = proc_tids.get(name)
        if tid is None:
            tid = len(proc_tids)
            proc_tids[name] = tid
            events.append({"ph": "M", "pid": _PID_PROCESS, "tid": tid,
                           "name": "thread_name", "args": {"name": name}})
        events.append({
            "name": kind, "cat": "process", "ph": "X",
            "pid": _PID_PROCESS, "tid": tid,
            "ts": _us(start_ns), "dur": _us(end_ns - start_ns),
            "args": {"start_ns": start_ns, "dur_ns": end_ns - start_ns},
        })

    doc = {
        "schema": CHROME_SCHEMA,
        "displayTimeUnit": "ns",
        "traceEvents": events,
        "otherData": dict(metadata or {}),
    }
    doc["otherData"].setdefault("messages", len(recorder.messages))
    doc["otherData"].setdefault("open_spans", recorder.open_spans)
    doc["otherData"].setdefault("dropped_side_events",
                                recorder.dropped_side_events)
    return doc


def timeline(recorder: SpanRecorder,
             metrics: Optional[Mapping[str, Any]] = None,
             metadata: Optional[Mapping[str, Any]] = None) -> dict:
    """Serialise a recorder to the plain-JSON timeline document."""
    return {
        "schema": TIMELINE_SCHEMA,
        "metadata": dict(metadata or {}),
        "messages": [
            {
                "msg_id": span.msg_id,
                "label": span.label,
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
                "duration_ns": span.duration_ns,
                "segments": [
                    {"phase": seg.phase, "start_ns": seg.start_ns,
                     "end_ns": seg.end_ns, "duration_ns": seg.duration_ns}
                    for seg in span.segments
                ],
            }
            for span in recorder.messages
        ],
        "nic_events": [
            {"node": n, "lane": lane, "start_ns": s, "end_ns": e, "wire_bytes": b}
            for n, lane, s, e, b in _nic_in_start_order(recorder)
        ],
        "process_events": [
            {"kind": k, "process": name, "start_ns": s, "end_ns": e}
            for k, name, s, e in recorder.process_events
        ],
        "metrics": dict(metrics or {}),
    }


# ------------------------------------------------------------- validation


def _fail(errors: list[str], msg: str) -> None:
    errors.append(msg)


def validate_chrome_trace(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed chrome-trace
    export whose per-message segment durations sum exactly to the
    message span durations."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ValueError("chrome trace: document is not an object")
    if doc.get("schema") != CHROME_SCHEMA:
        _fail(errors, f"schema is {doc.get('schema')!r}, want {CHROME_SCHEMA!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("chrome trace: traceEvents is not a list")

    span_durs: dict[int, int] = {}
    seg_sums: dict[int, int] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            _fail(errors, f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "I"):
            _fail(errors, f"event {i}: unsupported ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            _fail(errors, f"event {i}: missing name")
        if not isinstance(ev.get("pid"), int):
            _fail(errors, f"event {i}: missing pid")
        if ph != "X":
            continue
        args = ev.get("args")
        if (not isinstance(args, dict)
                or not isinstance(args.get("start_ns"), int)
                or not isinstance(args.get("dur_ns"), int)):
            _fail(errors, f"event {i}: X event lacks integer args.start_ns/dur_ns")
            continue
        if args["dur_ns"] < 0:
            _fail(errors, f"event {i}: negative dur_ns")
        cat = ev.get("cat")
        if cat == "message":
            span_durs[args["msg_id"]] = args["dur_ns"]
        elif cat == "phase":
            mid = args["msg_id"]
            seg_sums[mid] = seg_sums.get(mid, 0) + args["dur_ns"]

    if set(span_durs) != set(seg_sums):
        only_span = sorted(set(span_durs) - set(seg_sums))
        only_seg = sorted(set(seg_sums) - set(span_durs))
        _fail(errors, f"message/segment id mismatch: spans-only {only_span}, "
                      f"segments-only {only_seg}")
    for mid, dur in span_durs.items():
        if mid in seg_sums and seg_sums[mid] != dur:
            _fail(errors, f"msg {mid}: segments sum to {seg_sums[mid]} ns "
                          f"but span is {dur} ns")

    if errors:
        raise ValueError("chrome trace invalid:\n  " + "\n  ".join(errors))


def validate_timeline(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed timeline
    export satisfying the exact-sum invariant."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ValueError("timeline: document is not an object")
    if doc.get("schema") != TIMELINE_SCHEMA:
        _fail(errors, f"schema is {doc.get('schema')!r}, want {TIMELINE_SCHEMA!r}")
    messages = doc.get("messages")
    if not isinstance(messages, list):
        raise ValueError("timeline: messages is not a list")
    for m in messages:
        if not isinstance(m, dict):
            _fail(errors, "message entry is not an object")
            continue
        mid = m.get("msg_id")
        segs = m.get("segments", [])
        if m.get("duration_ns") != m.get("end_ns", 0) - m.get("start_ns", 0):
            _fail(errors, f"msg {mid}: duration_ns inconsistent with bounds")
        total = 0
        prev_end = m.get("start_ns")
        for seg in segs:
            total += seg.get("duration_ns", 0)
            if seg.get("start_ns") != prev_end:
                _fail(errors, f"msg {mid}: segments not contiguous")
                break
            prev_end = seg.get("end_ns")
        if total != m.get("duration_ns"):
            _fail(errors, f"msg {mid}: segments sum to {total} ns "
                          f"but span is {m.get('duration_ns')} ns")
    if errors:
        raise ValueError("timeline invalid:\n  " + "\n  ".join(errors))


def validate_file(path: str) -> str:
    """Validate a JSON export on disk (schema auto-detected).  Returns a
    one-line human summary; raises on invalid documents."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == CHROME_SCHEMA:
        validate_chrome_trace(doc)
        n = sum(1 for ev in doc["traceEvents"]
                if isinstance(ev, dict) and ev.get("cat") == "message")
        return f"{path}: valid {schema} ({n} message spans)"
    if schema == TIMELINE_SCHEMA:
        validate_timeline(doc)
        return f"{path}: valid {schema} ({len(doc['messages'])} message spans)"
    raise ValueError(f"{path}: unknown schema {schema!r}")


def _main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - CI shim
    import sys
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python -m repro.obs.export <trace.json> [...]")
        return 2
    for path in args:
        try:
            print(validate_file(path))
        except (ValueError, OSError) as exc:
            print(f"INVALID: {exc}")
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
