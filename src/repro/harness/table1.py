"""Table 1: Acuerdo election duration as a function of replica count.

Method, following §4.2 precisely: the leader proposes 10-byte messages
in an open loop; "we then repeatedly cause the leader to sleep five
seconds after winning its election" — here a long deschedule, scaled to
simulation time.  Each election is timed at the *winner*, from the
moment it detects the old leader as down until it can begin sending
(election protocol + diff transfer, excluding detection time) — exactly
the window the node records into ``acuerdo.election_duration_ns``.

The paper found durations "far more sensitive to the proportion of
long-latency nodes than to the overall number of replicas"; larger
CloudLab allocations inevitably contained more long-latency machines.
We reproduce that environment: a growing number of replicas are marked
long-latency (slow *response* cadence — large, jittered poll intervals —
with full processing capacity, so they batch-catch-up like real
descheduled machines).  Elections that can form a quorum from fast
nodes stay sub-millisecond; elections that need a long-latency voter
wait on its response cadence, which is where the jump from 3 to 5
replicas comes from.  Past 5 the paper's growth is not reproduced
(EXPERIMENTS.md, "Known deviations").

The entry point consumes a :class:`~repro.harness.runspec.RunSpec`
(:func:`elections`, an open-loop run whose ``duration_ms`` spans
``kills`` kill periods).
"""

from __future__ import annotations

from typing import Optional

from repro.core.cluster import AcuerdoCluster
from repro.harness.runspec import RunSpec
from repro.monitors import finish_monitors
from repro.sim.engine import ms, us
from repro.workloads.openloop import OpenLoopClient

#: Long-latency replicas per cluster size.  Chosen so that once the
#: current leader is asleep, a quorum cannot be formed from fast nodes
#: alone at n >= 5 — the paper's account of why Table 1 grows with n and
#: plateaus from 7 to 9.
DEFAULT_SLOW_NODES = {3: 0, 5: 2, 7: 3, 9: 4}

#: Response cadence of a long-latency node (poll interval + jitter).
SLOW_POLL_NS = us(800)

#: How long a deposed leader stays descheduled (the paper's 5 s sleep,
#: scaled to simulation time).
SLEEP_NS = ms(25)


def elections(spec: RunSpec, kills: int = 6,
              slow_nodes: Optional[int] = None) -> list[float]:
    """Run the §4.2 experiment described by ``spec``.

    ``spec.duration_ms`` spans the whole kill schedule: each of the
    ``kills`` leader sleeps is preceded by one ``duration_ms / kills``
    run period.  Returns measured election durations in milliseconds
    (one per successful fail-over election).
    """
    kill_period_ms = spec.duration_ms / kills
    engine = spec.make_engine()
    cluster = AcuerdoCluster(engine, spec.n, record_deliveries=False)
    cluster.start()
    engine.run(until=ms(1))

    n_slow = (slow_nodes if slow_nodes is not None
              else DEFAULT_SLOW_NODES.get(spec.n, spec.n // 3))
    # The long-latency machines are the highest-id replicas; elections
    # do not know that and must wait whenever a quorum needs one.
    for node_id in sorted(cluster.node_ids, reverse=True)[:n_slow]:
        node = cluster.nodes[node_id]
        node.config.poll_interval_ns = SLOW_POLL_NS
        node.config.poll_jitter_ns = SLOW_POLL_NS

    client = OpenLoopClient(cluster, period_ns=us(5),
                            message_size=spec.payload_bytes)
    client.start()

    slept = 0
    while slept < kills:
        engine.run(until=engine.now + ms(kill_period_ms))
        ldr = cluster.leader_id()
        if ldr is None:
            continue
        # The paper's trigger: the winning leader goes to sleep.
        cluster.nodes[ldr].deschedule(SLEEP_NS)
        slept += 1
    engine.run(until=engine.now + ms(2 * kill_period_ms))
    client.stop()

    # Election churn is exactly what the safety monitors exist to
    # audit; a check_invariants spec makes the run self-verifying.
    violations = finish_monitors(engine)
    if violations:
        raise AssertionError("\n".join(str(v) for v in violations))
    durations_ns = engine.trace.series("acuerdo.election_duration_ns")
    return [d / 1e6 for d in durations_ns]


def election_spec(n: int, seed: int = 1, kills: int = 6,
                  kill_period_ms: float = 8.0) -> RunSpec:
    """The RunSpec for one §4.2 election run: an open-loop 10-byte
    stream spanning ``kills`` kill periods."""
    return RunSpec(system="acuerdo", n=n, payload_bytes=10,
                   workload="openloop", duration_ms=kills * kill_period_ms,
                   seed=seed)


def table1_all(sizes=(3, 5, 7, 9), seed: int = 1,
               kills_per_size: int = 6, workers: int = 1) -> dict[int, float]:
    """Average election duration (ms) per replica count — the table row.

    Each replica count is an independent simulation; ``workers`` fans
    them across processes without changing any measured duration."""
    from repro.harness.parallel import run_points

    runs = run_points(elections,
                      [(election_spec(n, seed=seed, kills=kills_per_size),
                        kills_per_size) for n in sizes],
                      workers=workers)
    return {n: (sum(d) / len(d) if d else float("nan"))
            for n, d in zip(sizes, runs)}
