"""Command-line interface: run any experiment without touching pytest.

Usage::

    python -m repro shootout [--nodes 3] [--size 10] [--window 4]
    python -m repro fig8 --panel a [--systems acuerdo derecho-leader]
    python -m repro table1 [--sizes 3 5 7 9]
    python -m repro fig9 [--sizes 3 5 7 9]
    python -m repro elections --nodes 5 [--kills 4]
    python -m repro shard [--shards 1 4 16 64] [--skews 0.0 0.99] [--users 100000]
    python -m repro trace --system acuerdo [--duration-ms 5] [--out t.json]
    python -m repro trace --shards 8 --users 100000 --skew 0.99  # farm trace
    python -m repro shootout --check-invariants --crash 0@1.5
    python -m repro shootout --check-invariants --partition "0,1|2@2-6"
    python -m repro shootout --check-invariants --byz equivocate:1@2
    python -m repro adversary --matrix

Every subcommand prints the same text tables the benchmarks archive
under ``results/``; ``trace`` additionally writes a span trace (Chrome
trace event JSON, loadable in Perfetto, or a plain-JSON timeline).
``shootout``, ``shard`` and ``trace`` accept ``--check-invariants``
(run the :mod:`repro.monitors` safety monitors; violations fail the
exit code) and repeatable ``--crash node@ms`` / ``--crash g:n@ms``
failure-injection flags; ``shootout`` and ``trace`` additionally take
repeatable ``--partition "GROUPS@MS[-MS]"`` and ``--byz MODE:ADDR@MS``
adversarial schedules.  A schedule the run cannot take (malformed, or
naming a group or node it lacks) exits 2.  ``adversary`` runs the
Byzantine scenario suite (:mod:`repro.harness.adversary`): every
scheduled attack against every backend, classified by the monitor
oracle.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.harness.runspec import RunSpec


class _BadFlag(Exception):
    """A flag value the RunSpec rejected: :func:`main` exits 2, apart
    from exit 1, which reports safety violations."""


def _spec(**fields: object) -> "RunSpec":
    """The RunSpec the flags describe; a value it rejects (a malformed
    or out-of-range fault schedule, say) raises :class:`_BadFlag`."""
    from repro.harness.runspec import RunSpec

    try:
        return RunSpec(**fields)
    except ValueError as e:
        raise _BadFlag(e) from None


def _cmd_shootout(args: argparse.Namespace) -> int:
    from repro.harness import SYSTEMS, prepare, render_table
    from repro.harness.factory import EXTENSION_SYSTEMS
    from repro.monitors import finish_monitors
    from repro.sim import ms
    from repro.workloads.closedloop import ClosedLoopClient

    names = args.systems or (SYSTEMS + (EXTENSION_SYSTEMS if args.extensions else []))
    rows = []
    all_violations = []
    for name in names:
        spec = _spec(system=name, n=args.nodes, payload_bytes=args.size,
                     window=args.window, seed=args.seed,
                     check_invariants=args.check_invariants,
                     crashes=args.crash, partitions=args.partition,
                     byz=args.byz)
        system = prepare(spec)
        engine = system.engine
        client = ClosedLoopClient(system, window=args.window,
                                  message_size=args.size, warmup=30)
        client.start()
        deadline = engine.now + ms(500)
        while len(client.latencies) < args.messages and engine.now < deadline:
            engine.run(until=engine.now + ms(4))
        client.stop()
        res = client.result()
        row = [name, round(res.mean_latency_us, 1),
               round(res.percentile_latency_us(99), 1),
               round(res.throughput_mb_per_sec, 3), res.completed]
        if spec.check_invariants:
            violations = finish_monitors(engine)
            all_violations.extend(violations)
            row.append(len(violations))
        rows.append(row)
    rows.sort(key=lambda r: r[1])
    header = ["system", "mean_lat_us", "p99_lat_us", "tput_MB_s", "msgs"]
    if args.check_invariants:
        header.append("violations")
    print(render_table(
        f"Shootout: {args.nodes} nodes, {args.size}-byte messages, "
        f"window {args.window}", header, rows))
    return _report_violations(all_violations)


def _report_violations(violations: list) -> int:
    """Print observed safety violations; the exit code fails on any."""
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.harness import RunSpec, SYSTEMS, render_table
    from repro.harness.fig8 import floor, knee, sweep

    panels = {"a": (3, 10), "b": (3, 1000), "c": (7, 10), "d": (7, 1000)}
    n, size = panels[args.panel]
    from repro.harness.parallel import run_points

    names = args.systems or SYSTEMS
    sweeps = run_points(
        sweep,
        [(RunSpec(system=name, n=n, payload_bytes=size, seed=args.seed),
          1024, args.messages) for name in names],
        workers=args.workers)
    rows, summary = [], []
    for name, pts in zip(names, sweeps):
        for p in pts:
            rows.append([name, p.window, round(p.throughput_mb_s, 3),
                         round(p.mean_latency_us, 1)])
        f, k = floor(pts), knee(pts)
        summary.append([name, round(f.mean_latency_us, 1),
                        round(k.throughput_mb_s, 3)])
    print(render_table(f"Figure 8({args.panel}): {n} nodes, {size} B",
                       ["system", "window", "tput_MB_s", "mean_lat_us"], rows))
    print()
    print(render_table("Summary", ["system", "floor_lat_us", "knee_tput_MB_s"],
                       sorted(summary, key=lambda r: r[1])))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.harness.render import render_table
    from repro.harness.table1 import election_spec, elections

    from repro.harness.parallel import run_points

    runs = run_points(elections,
                      [(election_spec(n, seed=args.seed, kills=args.kills),
                        args.kills) for n in args.sizes],
                      workers=args.workers)
    rows = []
    for n, durations in zip(args.sizes, runs):
        mean = sum(durations) / len(durations) if durations else float("nan")
        rows.append([n, len(durations), round(mean, 3)])
    print(render_table("Table 1: election duration vs replica count",
                       ["replicas", "elections", "mean_ms"], rows))
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    from repro.harness.fig9 import FIG9_SYSTEMS, fig9_grid
    from repro.harness.render import render_table

    pts = fig9_grid(tuple(args.sizes), FIG9_SYSTEMS, seed=args.seed,
                    workers=args.workers, min_completions=args.messages)
    grid: dict[str, dict[int, float]] = {name: {} for name in FIG9_SYSTEMS}
    for p in pts:
        grid[p.system][p.n] = p.ops_per_sec
    rows = [[n] + [round(grid[name][n]) for name in FIG9_SYSTEMS]
            for n in args.sizes]
    print(render_table("Figure 9: YCSB-load ops/sec vs node count",
                       ["nodes"] + FIG9_SYSTEMS, rows))
    return 0


def _cmd_elections(args: argparse.Namespace) -> int:
    from repro.harness.render import render_table
    from repro.harness.table1 import election_spec, elections

    spec = election_spec(args.nodes, seed=args.seed, kills=args.kills)
    if args.check_invariants:
        spec = spec.replace(check_invariants=True)
    durations = elections(spec, kills=args.kills)
    rows = [[i, round(d, 3)] for i, d in enumerate(durations)]
    print(render_table(f"Election durations, {args.nodes} replicas (ms)",
                       ["election", "duration_ms"], rows))
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.harness.render import render_table
    from repro.harness.shardsweep import shard_sweep

    fields = dict(system=args.system, n=args.nodes,
                  payload_bytes=args.size, workload="openloop",
                  duration_ms=args.duration_ms, seed=args.seed,
                  users=args.users, arrival_rate=args.rate,
                  workers=args.workers if args.workers is not None else 1,
                  check_invariants=args.check_invariants,
                  crashes=args.crash, partitions=args.partition,
                  byz=args.byz)
    # Every shard count of the sweep is a spec of its own, validated
    # here: a schedule naming group 7 on a --shards 4 sweep fails
    # before anything runs.
    specs = [_spec(**fields, shards=s) for s in args.shards]
    pts = shard_sweep(specs[0], args.shards, args.skews) if specs else []
    header = ["shards", "skew", "committed", "tput_rps", "mean_lat_us",
              "p99_lat_us", "hottest_share", "events"]
    rows = [[p.shards, p.skew, p.committed, round(p.throughput_rps),
             round(p.mean_latency_us, 1), round(p.p99_latency_us, 1),
             round(p.hottest_share, 3), p.events_executed]
            for p in pts]
    if args.check_invariants:
        header.append("violations")
        for row, p in zip(rows, pts):
            row.append(p.violations)
    print(render_table(
        f"Shard farm: {args.system}, {args.users} users at "
        f"{round(args.rate)} req/s, {args.duration_ms} ms", header, rows))
    bad = sum(p.violations for p in pts)
    if bad:
        print(f"VIOLATIONS: {bad} safety violation(s) across the sweep",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.harness.render import render_table
    from repro.obs import capture_run
    from repro.obs.export import validate_chrome_trace, validate_timeline

    spec = _spec(system=args.system, n=args.nodes, payload_bytes=args.size,
                 window=args.window, workload=args.workload,
                 duration_ms=args.duration_ms, seed=args.seed,
                 capture_spans=True, shards=args.shards, users=args.users,
                 skew=args.skew, arrival_rate=args.rate,
                 check_invariants=args.check_invariants,
                 crashes=args.crash, partitions=args.partition,
                 byz=args.byz)
    res = capture_run(spec)
    if args.format == "chrome":
        doc = res.chrome()
        validate_chrome_trace(doc)
    else:
        doc = res.timeline()
        validate_timeline(doc)
    out = pathlib.Path(args.out) if args.out else \
        pathlib.Path(f"trace_{spec.system}_{args.format}.json")
    out.write_text(json.dumps(doc) + "\n")

    rec = res.recorder
    means = rec.phase_means()
    rows = [[phase, round(means[phase] / 1000.0, 3)]
            for phase in sorted(means, key=means.get, reverse=True)]
    print(render_table(
        f"Critical-path anatomy: {spec.system}, {spec.n} nodes, "
        f"{spec.payload_bytes} B, window {spec.window} "
        f"({len(rec.messages)} messages traced)",
        ["phase", "mean_us"], rows))
    print(f"wrote {out} ({len(rec.messages)} spans, "
          f"{len(rec.nic_events)} NIC events, "
          f"{len(rec.process_events)} process events)")
    return _report_violations(list(res.violations))


def _cmd_adversary(args: argparse.Namespace) -> int:
    import json

    from repro.harness.adversary import (ADVERSARY_SYSTEMS, attack_matrix,
                                         render_matrix, run_attack)
    from repro.sim.byzantine import BYZ_MODES

    systems = tuple(args.systems or ADVERSARY_SYSTEMS)
    if args.no_protection:
        systems = tuple("acuerdo-unprotected" if s == "acuerdo" else s
                        for s in systems)
    modes = tuple(args.modes or BYZ_MODES)
    for m in modes:
        if m not in BYZ_MODES:
            print(f"unknown attack mode {m!r}; pick from {BYZ_MODES}",
                  file=sys.stderr)
            return 2
    if args.matrix or len(systems) > 1 or len(modes) > 1:
        outcomes = attack_matrix(systems, modes, n=args.nodes,
                                 seed=args.seed, duration_ms=args.duration_ms,
                                 at_ms=args.at_ms, messages=args.messages)
    else:
        outcomes = [run_attack(systems[0], modes[0], n=args.nodes,
                               seed=args.seed, duration_ms=args.duration_ms,
                               at_ms=args.at_ms, messages=args.messages)]
    if args.json:
        print(json.dumps([o.to_dict() for o in outcomes], indent=2))
        return 0
    print(render_matrix(outcomes))
    print()
    from repro.harness.render import render_table

    rows = [[o.system, o.mode, o.outcome, o.attempts, o.landed, o.blocked,
             o.violations, o.completed] for o in outcomes]
    print(render_table(
        f"Attack detail: {args.nodes} nodes, seed {args.seed}, "
        f"armed at {args.at_ms} ms",
        ["system", "mode", "outcome", "att", "landed", "blocked",
         "viol", "msgs"], rows))
    witnesses = [o for o in outcomes if o.witness]
    if witnesses:
        print()
        for o in witnesses:
            print(f"WITNESS {o.system}/{o.mode}: {o.witness}")
    return 0


def _add_safety_flags(p: argparse.ArgumentParser) -> None:
    """Runtime-safety flags shared by the run-style subcommands."""
    p.add_argument("--check-invariants", action="store_true",
                   help="run the repro.monitors safety monitors over the "
                        "run; any violation fails the exit code")
    p.add_argument("--crash", action="append", default=[], metavar="ADDR@MS",
                   help="crash a replica: 'node@ms' or 'group:node@ms', "
                        "relative to workload start (repeatable)")


def _add_adversarial_flags(p: argparse.ArgumentParser) -> None:
    """Partition / Byzantine schedule flags (shootout and trace)."""
    p.add_argument("--partition", action="append", default=[],
                   metavar="GROUPS@MS[-MS]",
                   help="partition the substrate into |-separated "
                        "connectivity groups of comma-separated node ids, "
                        "optionally healing at the second time: "
                        "'0,1|2@5' or '0,1|2@5-20' (repeatable)")
    p.add_argument("--byz", action="append", default=[],
                   metavar="MODE:ADDR@MS",
                   help="arm a Byzantine attack on one node: e.g. "
                        "'equivocate:1@2' or 'replay_sst:0:1@0.5' "
                        "(repeatable; modes: equivocate, tamper, duplicate, "
                        "replay_sst, inflate, corrupt_ring, dup_ring)")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (one subcommand per experiment)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Acuerdo (ICPP'22) reproduction experiments")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep fan-out processes (default: "
                             "$REPRO_WORKERS or the core count; 1 = "
                             "sequential)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shootout", help="all systems at one load point")
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--messages", type=int, default=300)
    p.add_argument("--systems", nargs="*", default=None)
    p.add_argument("--extensions", action="store_true",
                   help="include DARE, Mu, Dolev and Bracha")
    _add_safety_flags(p)
    _add_adversarial_flags(p)
    p.set_defaults(fn=_cmd_shootout)

    p = sub.add_parser(
        "adversary",
        help="Byzantine scenario suite: attacks x systems, monitor-classified")
    p.add_argument("--systems", nargs="*", default=None,
                   help="systems to attack (default: the adversary set "
                        "incl. acuerdo-unprotected, dolev, bracha)")
    p.add_argument("--modes", nargs="*", default=None,
                   help="attack modes (default: all)")
    p.add_argument("--nodes", type=int, default=4,
                   help="replicas (>= 4 gives f >= 1 for Dolev/Bracha)")
    p.add_argument("--at-ms", type=float, default=1.0,
                   help="arm the attack this long after workload start")
    p.add_argument("--duration-ms", type=float, default=10.0)
    p.add_argument("--messages", type=int, default=80)
    p.add_argument("--matrix", action="store_true",
                   help="force the full matrix even for a single cell")
    p.add_argument("--json", action="store_true",
                   help="machine-readable outcome list instead of tables")
    p.add_argument("--no-protection", action="store_true",
                   help="swap acuerdo for the SST-protection-off ablation")
    p.set_defaults(fn=_cmd_adversary)

    p = sub.add_parser("fig8", help="one Figure 8 panel")
    p.add_argument("--panel", choices="abcd", default="a")
    p.add_argument("--messages", type=int, default=250)
    p.add_argument("--systems", nargs="*", default=None)
    p.set_defaults(fn=_cmd_fig8)

    p = sub.add_parser("table1", help="Table 1 election durations")
    p.add_argument("--sizes", type=int, nargs="*", default=[3, 5, 7, 9])
    p.add_argument("--kills", type=int, default=4)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("fig9", help="Figure 9 YCSB-load throughput")
    p.add_argument("--sizes", type=int, nargs="*", default=[3, 5, 7, 9])
    p.add_argument("--messages", type=int, default=400)
    p.set_defaults(fn=_cmd_fig9)

    p = sub.add_parser("elections", help="raw election durations for one size")
    p.add_argument("--nodes", type=int, default=5)
    p.add_argument("--kills", type=int, default=4)
    p.add_argument("--check-invariants", action="store_true",
                   help="audit the election churn with the repro.monitors "
                        "safety monitors (raises on any violation)")
    p.set_defaults(fn=_cmd_elections)

    p = sub.add_parser("shard", help="shard-farm sweep: shard count x skew")
    p.add_argument("--system", default="acuerdo")
    p.add_argument("--nodes", type=int, default=3,
                   help="replicas per group")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--shards", type=int, nargs="*", default=[1, 4, 16, 64])
    p.add_argument("--skews", type=float, nargs="*", default=[0.0, 0.99])
    p.add_argument("--users", type=int, default=100_000,
                   help="logical users (aggregate-arrival key space)")
    p.add_argument("--rate", type=float, default=500_000.0,
                   help="aggregate request rate (req/s)")
    p.add_argument("--duration-ms", type=float, default=10.0)
    # SUPPRESS: only override the global --workers when given after the
    # subcommand, so 'repro --workers N shard' keeps working too.
    p.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                   help="slice each farm point's groups across this many "
                        "engine processes (repro.shard.parallel); "
                        "per-shard results are bit-identical to 1")
    _add_safety_flags(p)
    _add_adversarial_flags(p)
    p.set_defaults(fn=_cmd_shard)

    p = sub.add_parser("trace", help="span-trace one run (Perfetto JSON)")
    p.add_argument("--system", default="acuerdo")
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--workload", choices=["closedloop", "openloop", "ycsb"],
                   default="closedloop")
    p.add_argument("--duration-ms", type=float, default=5.0)
    p.add_argument("--shards", type=int, default=1,
                   help=">1 traces a shard farm (spans tagged shard.<g>.*)")
    p.add_argument("--users", type=int, default=0,
                   help="farm users (shards > 1; 0 = default 10000)")
    p.add_argument("--skew", type=float, default=0.0,
                   help="Zipfian skew over farm users (shards > 1)")
    p.add_argument("--rate", type=float, default=0.0,
                   help="farm request rate req/s (shards > 1; 0 = default)")
    p.add_argument("--format", choices=["chrome", "timeline"],
                   default="chrome")
    p.add_argument("--out", default=None,
                   help="output path (default trace_<system>_<format>.json)")
    _add_safety_flags(p)
    _add_adversarial_flags(p)
    p.set_defaults(fn=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _BadFlag as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
