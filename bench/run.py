"""The repo benchmark: five workloads, both clocks, per-layer attribution.

    python3 bench/run.py [--workload NAME] [--seed N] [--repeats R] [--trace 0|1]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare A.json B.json

Every (workload, repeat) runs in a fresh child process (``onepass.py``),
one at a time; with several workloads the repeats are interleaved
round-robin.  The number of repeats is fixed before the first one
starts: ``--repeats``, or else ``--seconds`` divided by the nominal
cost of a pass.  Simulated-clock metrics are exact per seed and must be
identical in every pass; host-clock metrics are summarised over the
repeats (README.md, "Host clock"), with quartiles and the raw values
recorded in the result file.
``--trace 1`` runs each workload once more with the layer tracer and the
span recorder on, and reports the per-layer metrics; end-to-end metrics
always come from the untraced passes.

The metric names, units, directions and regression bounds live in
``BENCHMARK.json`` at the repo root; README.md defines each of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

import hosttrace
from onepass import PHASES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Environment gates of the simulator; the benchmark measures the
#: default configuration only.
ENV_GATES = {"REPRO_PARK": "1", "REPRO_CHAIN": "1", "REPRO_WORKERS": None}

#: Nominal host seconds of one untraced pass (one pass of all five
#: workloads takes about 35 s on the 2-CPU reference host), and what the
#: traced pass costs in the same unit.  They turn ``--seconds`` into a
#: number of passes that does not depend on how fast this host is.
PASS_SECONDS = 7.0
TRACED_PASS_COST = 2

#: Set-ups run and timed after each untraced pass, besides the pass's own.
EXTRA_SETUPS = 3

LAYERS = hosttrace.LAYERS
SIM_METRICS = ("commit_p50_us", "commit_p999_us", "goodput_kops",
               "committed_share", "slo_met_share")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------------ passes

def one_pass(workload: str, seed: int, scale: float, *extra: str) -> dict:
    """Run ``onepass.py`` in a fresh interpreter and return its JSON."""
    cmd = [sys.executable, os.path.join(HERE, "onepass.py"),
           "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
           "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeats_for(seconds: float, trace: bool) -> int:
    """Untraced passes per workload that fit a budget of ``seconds``."""
    n = round(seconds / PASS_SECONDS) - (TRACED_PASS_COST if trace else 0)
    return max(1, n)


def run_passes(names: list[str], seed: int, repeats: int, trace: bool,
               out_dir: str, scale: float = 1.0) -> dict[str, list[dict]]:
    """``repeats`` untraced passes of every workload, round-robin, then
    one traced pass each.  ``scale`` shortens the simulated durations
    (the benchmark's own tests only)."""
    passes: dict[str, list[dict]] = {n: [] for n in names}
    for traced in [False] * repeats + [True] * trace:
        for n in names:
            if traced:
                p = one_pass(n, seed, scale, "--trace-out",
                             os.path.join(out_dir, f"{n}.trace.json"))
            else:
                p = one_pass(n, seed, scale)
                # Set-up takes a sixth of a second, so a run can afford
                # more samples of it than it has passes.
                p["host"]["setup_only_s"] = [
                    one_pass(n, seed, scale, "--setup-only")["setup_s"]
                    for _ in range(EXTRA_SETUPS)]
            passes[n].append(p)
    return passes


# ------------------------------------------------------------- aggregation

def summary(values: list[float], value: Optional[float] = None) -> dict:
    """The reported value (the median of the per-pass values unless
    given), with their quartiles and the raw values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values) if value is None else value,
            "q1": q1, "q3": q3, "raw": values}


def aggregate(passes: list[dict]) -> dict:
    """Fold one workload's passes into metrics and correctness checks."""
    first = passes[0]
    sim, counts = first["sim"], first["sim"]["counts"]
    committed = max(1, sim["committed"])
    checks = {}
    for gate in first["gates"]:
        checks[gate] = all(p["gates"][gate] for p in passes)
    checks["sim_identical_across_passes"] = all(p["sim"] == sim for p in passes)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def cpu_us(p: dict) -> float:
        return p["host"]["cpu_s"] * 1e6 / committed

    e2e: dict[str, dict] = {k: {"value": sim["metrics"][k]} for k in SIM_METRICS}
    # A neighbour on the host only ever adds CPU time, in bursts shorter
    # than a pass, so each slice is charged what its least disturbed
    # repeat spent on it (README.md, "Host clock").
    undisturbed_s = sum(map(min, zip(*(p["host"]["slice_cpu_s"] for p in plain))))
    e2e["host_us_per_commit"] = summary([cpu_us(p) for p in plain],
                                        undisturbed_s * 1e6 / committed)
    e2e["peak_rss_mb"] = summary([p["host"]["peak_rss_mb"] for p in plain])
    e2e["setup_s"] = summary([s for p in plain for s in
                              [p["host"]["setup_s"], *p["host"]["setup_only_s"]]])

    def per_commit(key: str) -> float:
        return counts[key] / committed

    def share(part: str, whole: int) -> float:
        return counts[part] / whole if whole else 0.0

    median_cpu_s = statistics.median(p["host"]["cpu_s"] for p in plain)
    layer: dict[str, dict] = {
        "harness.median_host_us_per_commit": {
            "value": statistics.median(cpu_us(p) for p in plain)},
        "harness.wall_us_per_commit": summary(
            [p["host"]["wall_s"] * 1e6 / committed for p in plain]),
        "harness.cpu_over_wall": summary(
            [p["host"]["cpu_s"] / p["host"]["wall_s"] for p in plain]),
        "sim.engine.events_per_commit": {"value": per_commit("sim.engine.events")},
        "sim.engine.heap_pushes_per_commit":
            {"value": per_commit("sim.engine.heap_pushes")},
        "sim.engine.events_per_host_s":
            {"value": counts["sim.engine.events"] / median_cpu_s},
        "substrate.tx_msgs_per_commit": {"value": per_commit("substrate.tx_msgs")},
        "substrate.tx_bytes_per_commit": {"value": per_commit("substrate.tx_bytes")},
        "substrate.retransmits": {"value": counts["substrate.retransmits"]},
        "rdma.post_writes_per_commit": {"value": per_commit("rdma.post_writes")},
        "rdma.ring_sends_per_commit": {"value": per_commit("rdma.ring_sends")},
        "rdma.sst_pushes_per_commit": {"value": per_commit("rdma.sst_pushes")},
        "rdma.ring_refused_share": {"value": share(
            "rdma.ring_refused",
            counts["rdma.ring_sends"] + counts["rdma.ring_refused"])},
        "net.tcp.sends_per_commit": {"value": per_commit("net.tcp.sends")},
        "core.submit_refused_share": {"value": share(
            "core.submit_refused", counts["core.submit_offered"])},
        "core.elections": {"value": counts["core.elections"]},
        "core.election_us": {"value": (
            counts["core.election_ns"] / 1e3 / counts["core.elections"]
            if counts["core.elections"] else 0.0)},
        "shard.routes_per_commit": {"value": per_commit("shard.routes")},
        "shard.hottest_share": {"value": share("shard.hottest",
                                               counts["shard.routes"])},
        "monitors.events_per_commit": {"value": per_commit("monitors.events")},
        "workloads.submitted": {"value": sim["submitted"]},
        "workloads.committed": {"value": sim["committed"]},
        "workloads.latency_samples": {"value": sim["samples"]},
        "workloads.commit_gap_max_us": {"value": sim["commit_gap_max_us"]},
        "workloads.failed_share": {"value": sim["failed_share"]},
        "workloads.slo_miss_share": {"value": sim["slo_miss_share"]},
    }
    for t in traced[:1]:
        layers, spans = t["layers"], t["spans"]
        for name in LAYERS:
            layer[f"{name}.self_us_per_commit"] = {
                "value": layers["self_us_per_commit"][name]}
        layer["sim.process.polls_per_commit"] = {"value": layers["polls"] / committed}
        layer["sim.process.wakes_per_commit"] = {"value": layers["wakes"] / committed}
        layer["harness.trace_overhead_ratio"] = {
            "value": cpu_us(t) / e2e["host_us_per_commit"]["value"]}
        for ph in PHASES:
            layer[f"obs.phase.{ph}_us"] = {"value": spans["phase_us"][ph]}
        layer["obs.delivery_us"] = {"value": spans["delivery_us"]}
        checks["layer_self_times_sum_to_root"] = (
            abs(sum(layers["self_us_per_commit"].values()) * committed
                - layers["root_us"]) <= 0.01 * layers["root_us"])
        checks["phases_sum_to_delivery_latency"] = (
            spans["phase_other_us"] == 0 and
            abs(sum(spans["phase_us"].values()) - spans["delivery_us"]) < 1e-6)

    return {
        "sim_fingerprint": sim["fingerprint"],
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "attempted": sim["submitted"],
        "failed": sim["submitted"] - sim["committed"],
        "checks": checks,
        "violations": sim["violations"],
        "end_to_end": e2e,
        "per_layer": layer,
        "spec": first["spec"],
        "cost_table": first["cost_table"],
    }


# ----------------------------------------------------------------- output

def manifest(args: argparse.Namespace, names: list[str]) -> dict:
    try:
        # The ceiling keeps git inside this checkout when it is not a repository.
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": args.seed, "repeats": args.repeats, "trace": args.trace,
        "workloads": names,
        "env": {k: os.environ.get(k) for k in ENV_GATES},
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_table(name: str, agg: dict, units: dict[str, str]) -> None:
    print(f"== {name}  fingerprint {agg['sim_fingerprint']}  "
          f"passes {agg['passes']}  samples "
          f"{agg['per_layer']['workloads.latency_samples']['value']}")
    for group in ("end_to_end", "per_layer"):
        for metric, m in agg[group].items():
            spread = (f"  [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {len(m['raw'])}]"
                      if "raw" in m else "")
            print(f"  {metric:36s} {m['value']:>14.6g} {units[metric]:6s}{spread}")
    for check, ok in agg["checks"].items():
        print(f"  check {check:40s} {'ok' if ok else 'FAILED'}")
    for v in agg["violations"]:
        print(f"  violation: {v}")


def result_line(agg: dict, wanted: list[dict]) -> str:
    group = {**agg["end_to_end"], **agg["per_layer"]}
    return json.dumps({
        "correct": all(agg["checks"].values()),
        "attempted": agg["attempted"],
        "failed": agg["failed"],
        "metrics": {m["name"]: {"value": group[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    })


# ------------------------------------------------------------------- main

def main(argv: Optional[list[str]] = None) -> int:
    bench = load_benchmark()
    valid = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None,
                    help="one workload (default: all, interleaved)")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=None,
                    help="untraced passes per workload (default: from --seconds)")
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]),
                    help="host-time budget per workload, turned into repeats")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one more pass per workload, traced; per-layer metrics")
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for result and trace files")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="apply the bounds to two result files")
    args = ap.parse_args(argv)

    if args.compare:
        from compare import compare_files

        return compare_files(args.compare[0], args.compare[1], bench)
    if args.workload is not None and args.workload not in valid:
        print(f"unknown workload {args.workload!r}; valid workloads: "
              f"{', '.join(valid)}", file=sys.stderr)
        return 2
    for var, default in ENV_GATES.items():
        if os.environ.get(var, default) != default:
            print(f"refusing to run with {var}={os.environ[var]!r}: the "
                  "benchmark measures the default configuration", file=sys.stderr)
            return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("src/repro not found: nothing to benchmark", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else valid
    if args.repeats is None:
        args.repeats = repeats_for(args.seconds, bool(args.trace))
    elif args.repeats < 1:
        ap.error("--repeats must be at least 1")
    os.makedirs(args.out, exist_ok=True)
    doc: dict[str, Any] = {"manifest": manifest(args, names), "workloads": {}}
    passes = run_passes(names, args.seed, args.repeats, bool(args.trace), args.out)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    ok = True
    lines = []
    for n in names:
        agg = doc["workloads"][n] = aggregate(passes[n])
        print_table(n, agg, units)
        ok = ok and all(agg["checks"].values())
        lines.append(result_line(agg, wanted))
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    tag = args.workload or "all"
    path = os.path.join(args.out, f"{stamp}-{tag}-seed{args.seed}"
                        f"-trace{args.trace}-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(path)}")
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
