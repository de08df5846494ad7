"""Wall-clock (host-side) performance harness for the simulator.

Simulated time is a pure function of seed and configuration; *wall-clock*
time is how long the host needs to execute that simulation, and is the
quantity every Fig. 8 / Fig. 9 / Table 1 regeneration pays dozens of
times over.  This module pins a **fixed reference workload** — one
mid-size Fig. 8 point per substrate backend, fixed seed — and times it,
so host-side optimizations can be quantified and tracked in a checked-in
``BENCH_host_perf.json`` file.

Two invariants are enforced alongside the timing:

- **behavioral**: the reference points' simulated results (throughput,
  latencies, completions, wire totals) are recorded in the BENCH file
  and re-checked on every run — they are machine-independent, so any
  drift means an optimization changed simulated behaviour, not just
  host speed (the per-protocol golden fingerprint tests guard the same
  property at finer grain);
- **parallel == sequential**: a small Fig. 8 sweep is rendered through
  :func:`repro.harness.parallel.run_points` with ``workers=1`` and
  ``workers=N`` and the artifact text must match byte for byte.

Usage::

    PYTHONPATH=src python -m repro.harness.hostperf --capture-baseline
    PYTHONPATH=src python -m repro.harness.hostperf            # fill "after"
    PYTHONPATH=src python -m repro.harness.hostperf --check    # CI gate

The "before" numbers are only meaningful relative to "after" numbers
measured on the same machine; the behavioral reference values are
meaningful everywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import sys
import time
from dataclasses import asdict
from typing import Any, Callable, Optional

from repro.harness.fig8 import point
from repro.harness.runspec import RunSpec
from repro.harness.shardsweep import shard_point

SCHEMA = "repro.host_perf/v1"

DEFAULT_PATH = pathlib.Path("BENCH_host_perf.json")

#: The fixed reference workload: one mid-size Fig. 8 point per backend,
#: named by a :class:`RunSpec` plus its completion target.  Frozen —
#: editing these invalidates every recorded number in the BENCH file
#: (capture a fresh baseline if you must change them).
REFERENCE_POINTS: dict[str, dict[str, Any]] = {
    "rdma": {"spec": RunSpec(system="acuerdo", n=3, payload_bytes=1000,
                             window=32, seed=3, duration_ms=2000.0),
             "min_completions": 3000},
    "tcp": {"spec": RunSpec(system="zookeeper", n=3, payload_bytes=1000,
                            window=32, seed=3, duration_ms=4000.0),
            "min_completions": 2000},
}

#: The sweep-equivalence check workload (kept tiny: it runs the sweep
#: twice).
SWEEP_CHECK_SPEC = RunSpec(system="acuerdo", n=3, payload_bytes=100, seed=5)
SWEEP_CHECK = dict(min_completions=60, max_window=8)

#: Executed-event ceilings for the reference points (machine-
#: independent, like the behavioral fingerprints).  ``--check``
#: fails if a reference run executes more events than this — the
#: bench-smoke guard against poll-elision regressions.  Values are the
#: measured counts plus ~25% headroom.
EVENT_CEILINGS: dict[str, int] = {
    "rdma": 64_000,     # measured 51_567 (66_494 before heartbeat trains)
    "tcp": 63_000,      # measured 50_224 (112_477 before parking through fsync)
}

#: The shard-farm reference point: an 8-group Acuerdo farm serving 10^5
#: logical users under Zipfian(0.99) skew at 500k req/s aggregate.
#: Exercises the scale-out path (router, scoped groups, aggregate
#: arrivals) the same way the backend points exercise the substrates.
SHARD_POINT = RunSpec(system="acuerdo", n=3, seed=9, payload_bytes=64,
                      workload="openloop", duration_ms=20.0, shards=8,
                      users=100_000, skew=0.99, arrival_rate=500_000.0)

#: Executed-event ceiling for :data:`SHARD_POINT` (measured 148_966 with
#: heartbeat trains — 223_221 before them, 301_200 before heartbeat rows
#: became quiet deposits — plus ~25% headroom).  Guards the
#: per-group event cost of the farm: a regression here multiplies by the
#: shard count.
SHARD_EVENT_CEILING = 184_000

#: Slice workers for the shard-parallel reference measurement: the
#: 8-group farm splits into this many contiguous 2-group slices.
PARALLEL_WORKERS = 4

#: Wall-clock factor the space-parallel farm must buy at
#: :data:`PARALLEL_WORKERS` workers vs the serial engine (``--check``
#: gate).  On hosts with fewer CPUs than workers the gate applies to
#: ``projected_speedup`` — serial seconds over the slowest slice's
#: *inner* seconds from a sequential-slices run — since concurrent
#: slices on a starved host measure queueing, not the parallel design.
FARM_PARALLEL_MIN_SPEEDUP = 3.0

#: Worst acceptable wall-clock ratio (monitors on / monitors off) for
#: the rdma reference point with ``check_invariants`` set.  The
#: monitors subscribe to protocol-emitted safety events (``engine.
#: probe`` gates every emission site, so "off" costs one attribute
#: load per site); "on" pays event construction plus the incremental
#: invariant checks.  The reference point is a monitor-density worst
#: case — ~37k safety events against ~74k simulator events, about 2 us
#: of dispatch+check per event — and measures ~1.12-1.16x best-of
#: interleaved on this class of host, drifting to ~1.28x under shared-
#: host load.  The bar is a regression tripwire (pre-optimization
#: dispatch measured 1.5x), not a certification of the third decimal,
#: so it clears the observed noise band.  ``--check`` gate.
MONITOR_MAX_OVERHEAD = 1.35


@contextlib.contextmanager
def _gc_paused():
    """Collector off for a timed section.

    The simulations allocate heavily but are acyclic at the rates that
    matter; generational GC pauses are host noise in the wall numbers
    (~9% on the shard farm), so the timed sections measure with the
    collector off and restore it afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


def _best_of(thunks: "dict[str, Callable[[], Any]]", repeats: int,
             floor: int = 3) -> "dict[str, tuple[float, Any]]":
    """The one timing loop: run the labelled thunks round-robin for
    ``max(floor, repeats)`` rounds, collector paused, and return
    ``label -> (best wall seconds, result)``.

    A single sample confounds host scheduling noise with real cost and
    best-of needs a population, hence the floor.  Each label's result
    (a pure function of its spec) must repeat exactly — a mismatch is
    raised, not reported.  With several labels the rounds interleave
    (off, on, off, on, ...) rather than time sequential blocks: host
    load swings on a shared machine last seconds, and interleaving
    exposes every configuration to the same load phases so best-of
    compares like with like."""
    best = dict.fromkeys(thunks, float("inf"))
    first: dict[str, Any] = {}
    for _ in range(max(floor, repeats)):
        for label, thunk in thunks.items():
            with _gc_paused():
                t0 = time.perf_counter()
                result = thunk()
                best[label] = min(best[label], time.perf_counter() - t0)
            if label not in first:
                first[label] = result
            elif first[label] != result:
                raise AssertionError(
                    f"{label}: reference point not deterministic across "
                    "repeats")
    return {label: (best[label], first[label]) for label in thunks}


def _timed_point(seconds: float, events: int, point: Any) -> dict[str, Any]:
    """The BENCH record of one timed reference point."""
    return {"seconds": round(seconds, 4),
            "events": events,
            "events_per_wall_s": round(events / seconds) if seconds else 0,
            "point": asdict(point)}


def _reference_thunk(backend: str,
                     check_invariants: bool = False) -> Callable[[], Any]:
    """``() -> (Fig8Point, events_executed, violations)`` for one
    backend's reference point."""
    ref = REFERENCE_POINTS[backend]
    spec = ref["spec"].replace(check_invariants=check_invariants)

    def thunk() -> Any:
        collect: dict[str, Any] = {}
        p = point(spec, min_completions=ref["min_completions"],
                  collect=collect)
        return p, collect["events_executed"], collect["violations"]
    return thunk


def measure(repeats: int = 3) -> dict[str, dict[str, Any]]:
    """Best-of-``repeats`` (>= 3) wall-clock seconds per backend, plus
    the simulated result (asserted identical across repeats) and the
    executed-event count with its events/wall-second rate."""
    timed = _best_of({backend: _reference_thunk(backend)
                      for backend in sorted(REFERENCE_POINTS)}, repeats)
    return {backend: _timed_point(best, events, p)
            for backend, (best, (p, events, _violations)) in timed.items()}


def shard_section(repeats: int = 3) -> dict[str, Any]:
    """Run :data:`SHARD_POINT` ``repeats`` (>= 3) times on one engine
    (``workers=1``: the one-slice farm): wall time (best of), executed
    events, events/wall-second, and the simulated result (asserted
    identical across repeats — the farm is a pure function of the
    spec)."""
    [(best, result)] = _best_of(
        {"shard farm": lambda: shard_point(SHARD_POINT)}, repeats).values()
    return _timed_point(best, result.events_executed, result)


def shard_parallel_section(serial: dict[str, Any],
                           repeats: int = 3) -> dict[str, Any]:
    """Run :data:`SHARD_POINT` as :data:`PARALLEL_WORKERS` slices and
    compare against the one-slice farm (``serial`` is
    :func:`shard_section`'s result, reused as the timing baseline).

    Four measurements:

    - one one-slice run with the per-shard fingerprint side channel
      (the equivalence oracle; untimed),
    - best-of-``repeats`` sliced runs through the real process pool
      (``wall_speedup``),
    - sequential-slices runs (``pool_workers=1``) whose per-slice
      *inner* seconds give ``projected_speedup`` — the honest parallel
      bound on hosts with fewer CPUs than workers, where concurrent
      slices would measure scheduler queueing,
    - one monitored sliced run, which must report zero violations and
      the same fingerprints (monitors are pure observers).

    ``identical_point`` requires bit-identical per-shard fingerprints
    AND an identical :class:`ShardPoint` minus the host-cost fields
    (``events_executed`` sums over slice engines; ``workers`` is
    self-describing by design).
    """
    spec = SHARD_POINT.replace(workers=PARALLEL_WORKERS)
    serial_collect: dict[str, Any] = {}
    serial_point = shard_point(SHARD_POINT, collect=serial_collect)

    def sliced() -> Any:
        collect: dict[str, Any] = {}
        p = shard_point(spec, collect=collect)
        return (p, collect["shard_fingerprints"], collect["slices"],
                collect["foreign"])

    [(best, (par_point, par_prints, slices, foreign))] = _best_of(
        {"shard-parallel farm": sliced}, repeats).values()

    # Per-slice inner seconds, best-of-2 per slice: the serial baseline
    # is a best-of too, and the projected-speedup gate is a ratio of the
    # two, so both sides get the same de-noising.
    slice_secs: "list[float]" = []
    for _ in range(2):
        seq_collect: dict[str, Any] = {}
        with _gc_paused():
            shard_point(spec, collect=seq_collect, pool_workers=1)
        secs = seq_collect["slice_seconds"]
        slice_secs = (secs if not slice_secs
                      else [min(a, b) for a, b in zip(slice_secs, secs)])

    mon_collect: dict[str, Any] = {}
    shard_point(spec.replace(check_invariants=True), collect=mon_collect)

    host_cost = {"events_executed", "workers"}
    serial_beh = {k: v for k, v in asdict(serial_point).items()
                  if k not in host_cost}
    par_beh = {k: v for k, v in asdict(par_point).items()
               if k not in host_cost}
    return {
        "workers": PARALLEL_WORKERS,
        "host_cpus": os.cpu_count() or 1,
        "slices": [list(s) for s in slices],
        "serial_seconds": serial["seconds"],
        "seconds": round(best, 4),
        "wall_speedup": round(serial["seconds"] / best, 3)
            if best else float("inf"),
        "slice_inner_seconds": [round(s, 4) for s in slice_secs],
        "projected_speedup": round(serial["seconds"] / max(slice_secs), 3)
            if max(slice_secs) else float("inf"),
        "identical_point": (
            par_beh == serial_beh
            and par_prints == serial_collect["shard_fingerprints"]
            and mon_collect["shard_fingerprints"]
                == serial_collect["shard_fingerprints"]),
        "monitored_violations": len(mon_collect["violations"]),
        "foreign_total": foreign,
        "point": asdict(par_point),
    }


def monitors_section(repeats: int = 3) -> dict[str, Any]:
    """Run the rdma reference point with the safety monitors off and on,
    interleaved round by round (see :func:`_best_of`).

    The monitors are observers: the simulated :class:`Fig8Point` must be
    identical with ``check_invariants`` on and off (asserted by the
    caller via ``identical_point``), the audited run must report zero
    violations, and the wall-clock overhead must stay under
    :data:`MONITOR_MAX_OVERHEAD`."""
    # One extra interleaved round vs the other sections: the gate is a
    # ratio of two best-ofs, so its noise compounds.
    timed = _best_of({"off": _reference_thunk("rdma"),
                      "on": _reference_thunk("rdma", check_invariants=True)},
                     repeats, floor=4)
    out: dict[str, Any] = {
        label: {"seconds": round(best, 4), "point": asdict(p),
                "violations": violations}
        for label, (best, (p, _events, violations)) in timed.items()}
    out["identical_point"] = out["on"]["point"] == out["off"]["point"]
    out["overhead"] = round(out["on"]["seconds"] / out["off"]["seconds"], 3) \
        if out["off"]["seconds"] else float("inf")
    return out


def sweep_equivalence(workers: int = 4) -> dict[str, Any]:
    """Render the same small Fig. 8 sweep with ``workers=1`` and
    ``workers=N``; the artifact text must be identical."""
    from repro.harness.fig8 import sweep
    from repro.harness.render import render_table

    def render(workers: int) -> str:
        pts = sweep(SWEEP_CHECK_SPEC, workers=workers, **SWEEP_CHECK)
        rows = [[p.window, round(p.throughput_mb_s, 3),
                 round(p.mean_latency_us, 1), round(p.p99_latency_us, 1),
                 p.completed, p.wire_bytes] for p in pts]
        return render_table(
            "host-perf sweep equivalence workload",
            ["window", "tput_MB_s", "mean_lat_us", "p99_lat_us",
             "completed", "wire_bytes"], rows)

    seq, par = render(1), render(workers)
    return {"workers": workers, "identical_artifacts": seq == par,
            "artifact_lines": len(seq.splitlines())}


def _speedups(before: dict, after: dict) -> dict[str, float]:
    out = {}
    total_b = total_a = 0.0
    for backend in sorted(REFERENCE_POINTS):
        b, a = before[backend]["seconds"], after[backend]["seconds"]
        total_b += b
        total_a += a
        out[backend] = round(b / a, 3) if a else float("inf")
    out["total"] = round(total_b / total_a, 3) if total_a else float("inf")
    return out


def _reference_drift(recorded: dict, current: dict) -> list[str]:
    """Backends whose simulated reference results changed (machine-
    independent — any entry here is a behavioral regression)."""
    return [b for b in sorted(REFERENCE_POINTS)
            if recorded[b]["point"] != current[b]["point"]]


def write_bench(path: pathlib.Path, repeats: int = 3,
                capture_baseline: bool = False, check: bool = False,
                sweep_workers: int = 4) -> int:
    """Measure and (re)write the BENCH file; returns a process exit code."""
    repeats = max(3, repeats)  # best-of needs a population (see _best_of)
    existing: Optional[dict] = None
    if path.exists():
        existing = json.loads(path.read_text())
    current = measure(repeats=repeats)

    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "workload": {k: {"spec": v["spec"].to_dict(),
                         "min_completions": v["min_completions"]}
                     for k, v in REFERENCE_POINTS.items()},
        "units": "wall-clock seconds, best of repeats, per reference point",
        "repeats": repeats,
    }
    failures: list[str] = []

    if capture_baseline or existing is None or "before" not in existing:
        doc["before"] = current
        doc["after"] = None
        doc["speedup"] = None
    else:
        doc["before"] = existing["before"]
        doc["after"] = current
        doc["speedup"] = _speedups(existing["before"], current)
        drift = _reference_drift(existing["before"], current)
        if drift:
            failures.append(
                f"reference fingerprints drifted for backends {drift}: "
                "simulated behaviour changed, not just host speed")

    if check:
        for backend in sorted(REFERENCE_POINTS):
            ceiling = EVENT_CEILINGS.get(backend)
            got = current[backend]["events"]
            if ceiling is not None and got > ceiling:
                failures.append(
                    f"{backend}: reference point executed {got} events, "
                    f"over the EVENT_CEILINGS bench-smoke bound {ceiling} "
                    "(poll-elision regression?)")

    farm = shard_section(repeats=repeats)
    doc["shard_farm"] = farm
    if check and farm["events"] > SHARD_EVENT_CEILING:
        failures.append(
            f"shard farm: reference point executed {farm['events']} events, "
            f"over the SHARD_EVENT_CEILING bench-smoke bound "
            f"{SHARD_EVENT_CEILING}")

    par = shard_parallel_section(farm, repeats=repeats)
    doc["shard_farm_parallel"] = par
    if not par["identical_point"]:
        failures.append(
            f"shard-parallel farm: workers={par['workers']} produced "
            "different per-shard fingerprints or a different simulated "
            "point than the serial farm (space-partitioning must be "
            "behaviour-preserving)")
    if par["monitored_violations"]:
        failures.append(
            f"shard-parallel farm: the monitored run reported "
            f"{par['monitored_violations']} safety violation(s)")
    if check:
        if par["host_cpus"] >= par["workers"]:
            speedup, basis = par["wall_speedup"], "wall"
        else:
            speedup, basis = par["projected_speedup"], "projected"
        if speedup < FARM_PARALLEL_MIN_SPEEDUP:
            failures.append(
                f"shard-parallel farm: {basis} speedup {speedup}x at "
                f"workers={par['workers']} is below the "
                f"FARM_PARALLEL_MIN_SPEEDUP bar {FARM_PARALLEL_MIN_SPEEDUP}x")

    mon = monitors_section(repeats=repeats)
    doc["monitors"] = mon
    if not mon["identical_point"]:
        failures.append(
            "monitors: the audited rdma reference run produced a different "
            "simulated result than the unaudited one (the safety monitors "
            "must be pure observers)")
    if mon["on"]["violations"]:
        failures.append(
            f"monitors: the rdma reference run reported "
            f"{mon['on']['violations']} safety violation(s)")
    if check and mon["overhead"] > MONITOR_MAX_OVERHEAD:
        failures.append(
            f"monitors: wall-clock overhead {mon['overhead']}x is over the "
            f"MONITOR_MAX_OVERHEAD bar {MONITOR_MAX_OVERHEAD}x")

    if not capture_baseline:
        eq = sweep_equivalence(workers=sweep_workers)
        doc["sweep_scaling"] = eq
        if not eq["identical_artifacts"]:
            failures.append(
                f"fig8 sweep with workers={sweep_workers} produced a "
                "different artifact than workers=1")

    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    print(f"wrote {path}")
    if doc.get("speedup"):
        print(f"speedup vs baseline: {doc['speedup']}")
    return 1 if (check and failures) else 0


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path, default=DEFAULT_PATH)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--capture-baseline", action="store_true",
                    help="record the current tree's timing as 'before'")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero on reference drift or a "
                         "parallel/sequential artifact mismatch")
    ap.add_argument("--sweep-workers", type=int, default=4)
    args = ap.parse_args(argv)
    return write_bench(args.out, repeats=args.repeats,
                       capture_baseline=args.capture_baseline,
                       check=args.check, sweep_workers=args.sweep_workers)


if __name__ == "__main__":
    raise SystemExit(main())
