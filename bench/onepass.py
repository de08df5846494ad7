"""One pass of one workload in this (fresh) process; prints one JSON line.

``run.py`` starts this file once per (workload, repeat) so resident set
size, interpreter caches and import time are isolated per pass.  The
output has three parts:

- ``sim``: simulated-clock metrics, exact counts and the fingerprint --
  a pure function of (workload, seed, scale), identical with tracing on;
- ``host``: host-clock measurements of this pass;
- with ``--trace-out``, the traced pass: ``layers`` holds per-layer self
  time and the call counts only the wrappers can see, ``spans`` the
  simulated-clock phase means from the repo's own span recorder.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time

PHASES = ("propose", "nic_tx", "wire", "deposit", "poll_notice", "accept",
          "commit", "deliver")


def _rank(sorted_vals: list, pct: float):
    """Nearest-rank percentile, as the repo's own harnesses compute it."""
    return sorted_vals[min(len(sorted_vals) - 1, int(len(sorted_vals) * pct / 100.0))]


def sim_outcome(p, t_start: int) -> dict:
    """Simulated-clock metrics and exact counts of a driven workload."""
    from workloads import WARMUP

    client, engine, w = p.client, p.engine, p.workload
    t_stop = t_start + p.measure_ns
    if hasattr(client, "ack_times"):            # closed loop
        commits = client.ack_times
        first = min(WARMUP, len(commits))
        submitted, committed = client.sent, client.completed
        lats = client.latencies
    else:                                       # open loop
        commits = client.commit_times
        first = 0
        submitted, committed = client.sent, client.committed
        lats = client.latencies_ns
    window = [t for t in commits[first:] if t <= t_stop]
    gap = max((b - a for a, b in zip(window, window[1:])), default=0)
    ordered = sorted(lats)
    slo_ns = w.slo_us * 1000.0
    failed = submitted - committed
    measured = len(lats) + failed       # warm-up completions are not measured
    met = sum(1 for x in lats if x <= slo_ns)

    backend = p.groups[0].substrate.backend
    counters: dict[str, int] = {}
    per_group = []
    for g in p.groups:
        c = g.substrate_counters()
        per_group.append(sorted(c.items()))
        for key, v in c.items():
            counters[key] = counters.get(key, 0) + v
    sub = f"substrate.{backend}."
    rings = [r for g in p.groups for r in getattr(g, "rings", {}).values()]
    ssts = [getattr(g, n) for g in p.groups
            for n in ("accept_sst", "vote_sst", "commit_sst") if hasattr(g, n)]
    qps = [qp for g in p.groups if backend == "rdma"
           for qp in g.substrate._all_qps()]
    ring_sends = sum(r.next_seq for r in rings)
    ring_refused = sum(r.stalls for r in rings)
    elections = engine.trace.series("acuerdo.election_duration_ns")
    dep = p.deployment
    refused = sum(dep.dropped) if dep else getattr(client, "dropped", 0)
    monitors = engine.monitors
    violations = monitors.finish() if monitors is not None else []

    fingerprint = hashlib.sha256(repr((
        committed, tuple(lats), per_group, engine.events_executed,
    )).encode()).hexdigest()[:16]
    return {
        "metrics": {
            "commit_p50_us": _rank(ordered, 50) / 1e3,
            "commit_p999_us": _rank(ordered, 99.9) / 1e3,
            "goodput_kops": (sum(1 for t in commits if t <= t_stop)
                             / (p.measure_ns / 1e9) / 1e3),
            "committed_share": committed / submitted,
            "slo_met_share": met / measured,
        },
        "commit_gap_max_us": gap / 1e3,
        "failed_share": failed / submitted,
        "slo_miss_share": (measured - met) / measured,
        "samples": len(lats),
        "submitted": submitted,
        "committed": committed,
        "fingerprint": fingerprint,
        "counts": {
            "sim.engine.events": engine.events_executed,
            "sim.engine.heap_pushes": engine.heap_pushes,
            "substrate.tx_msgs": counters.get(sub + "tx_msgs", 0),
            "substrate.tx_bytes": counters.get(sub + "tx_bytes", 0),
            "substrate.retransmits": counters.get(sub + "retransmits", 0),
            "rdma.post_writes": sum(qp.posted for qp in qps),
            "rdma.ring_sends": ring_sends,
            "rdma.ring_refused": ring_refused,
            "rdma.sst_pushes": sum(s.pushes for s in ssts),
            "net.tcp.sends": (counters.get(sub + "tx_msgs", 0)
                              if backend == "tcp" else 0),
            "core.submit_offered": submitted,
            "core.submit_refused": refused,
            "core.elections": len(elections),
            "core.election_ns": sum(elections),
            "core.leaders_crashed": len(p.crashed),
            "shard.routes": dep.total_submitted() if dep else 0,
            "shard.hottest": max(dep.submitted) if dep else 0,
            "monitors.events": monitors.events_seen if monitors else 0,
            "monitors.violations": len(violations),
        },
        "violations": [str(v) for v in violations[:5]],
    }


def gates(p, sim: dict) -> dict[str, bool]:
    """Correctness checks every pass carries (all must hold)."""
    c = sim["counts"]
    out = {"no_monitor_violations": c["monitors.violations"] == 0}
    crashes = len(p.crash_offsets_ns)
    if crashes:
        # Requests due while no leader exists are refused, and those a
        # crashed leader had accepted are lost: some must fail, not many.
        out["failed_share_between_0_and_0.05"] = 0 < sim["failed_share"] < 0.05
        out["leaders_crashed_as_scheduled"] = c["core.leaders_crashed"] == crashes
        out["one_election_per_crash"] = c["core.elections"] == crashes
        try:
            p.groups[0].deliveries.check_total_order()
            out["total_order"] = True
        except AssertionError:
            out["total_order"] = False
    else:
        out["all_submitted_committed"] = sim["committed"] == sim["submitted"]
        out["no_submit_refused"] = c["core.submit_refused"] == 0
    return out


def host_layers(tracer, committed: int) -> dict:
    """Layer self time and the call counts only the wrappers can see."""
    n = max(1, committed)
    return {
        "root_us": tracer.root_ns / 1e3,
        "self_us_per_commit": {k: v / 1e3 / n
                               for k, v in tracer.layer_self_ns().items()},
        "polls": tracer.calls(".on_poll"),
        "wakes": tracer.calls("Process.doorbell", "Process.request_poll"),
    }


def span_phases(recorder) -> dict:
    """Mean simulated us per message and phase (the phases of a message
    sum exactly to its delivery latency)."""
    phases = dict.fromkeys(PHASES, 0)
    other = 0
    msgs = recorder.messages
    for span in msgs:
        for seg in span.segments:
            if seg.phase in phases:
                phases[seg.phase] += seg.end_ns - seg.start_ns
            else:
                other += seg.end_ns - seg.start_ns
    m = max(1, len(msgs))
    return {
        "phase_us": {k: v / 1e3 / m for k, v in phases.items()},
        "phase_other_us": other / 1e3 / m,
        "delivery_us": sum(s.end_ns - s.start_ns for s in msgs) / 1e3 / m,
        "messages_traced": len(msgs),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--trace-out", default=None,
                    help="trace this pass and write the spans here")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop before the first request; print setup_s only")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="parent's time.monotonic() just before the spawn")
    args = ap.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from workloads import prepare

    tracer = None
    if args.trace_out:
        from hosttrace import HostTracer

        tracer = HostTracer(keep_spans=100_000)
        tracer.install()
    p = prepare(args.workload, args.seed, args.scale,
                capture_spans=tracer is not None)

    gc.collect()
    gc.disable()    # collector pauses are host noise, as in hostperf._gc_paused
    t_start = p.engine.now
    setup_s = time.monotonic() - spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    wall0, marks = time.perf_counter(), [time.process_time()]
    if tracer is not None:
        tracer.begin_region()
    p.drive(lambda: marks.append(time.process_time()))
    if tracer is not None:
        tracer.end_region()
    cpu_s, wall_s = marks[-1] - marks[0], time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.enable()

    sim = sim_outcome(p, t_start)
    out = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "traced": tracer is not None,
        "sim": sim,
        "gates": gates(p, sim),
        "host": {
            "cpu_s": cpu_s, "wall_s": wall_s, "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "slice_cpu_s": [b - a for a, b in zip(marks, marks[1:])],
        },
        "spec": p.spec.to_dict(),
        "cost_table": p.groups[0].substrate.params.cost_table(),
    }
    if tracer is not None:
        out["spans"] = span_phases(p.engine.obs)
        out["layers"] = host_layers(tracer, sim["committed"])
        tracer.write(args.trace_out, {
            "workload": args.workload, "seed": args.seed,
            "scale": args.scale, "committed": sim["committed"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
