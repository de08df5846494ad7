"""End-to-end atomic-broadcast safety under randomized failure schedules.

For Acuerdo and for each baseline, hypothesis generates workloads and
failure schedules (crash timings, deschedules, slow nodes) and asserts
the §2.2 properties over the delivered sequences:

- Integrity: nothing delivered that was not broadcast;
- No Duplication: no payload delivered twice at one node;
- Total Order: all per-node sequences are prefix-related.

Liveness is NOT asserted under arbitrary schedules (a majority crash
legitimately halts progress); safety must hold regardless.  Every run
also carries the online safety monitors, which must stay silent.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core import AcuerdoCluster
from repro.harness.factory import build_from_spec
from repro.harness.runspec import RunSpec
from repro.monitors import finish_monitors
from repro.sim import ms, us
from tests.properties import budget


def _run_schedule(system_name: str, n: int, seed: int, crashes: list[int],
                  deschedules: list[tuple[int, int]], msgs: int,
                  horizon_ms: int) -> object:
    spec = RunSpec(system=system_name, n=n, seed=seed, check_invariants=True)
    engine = spec.make_engine()
    system = build_from_spec(spec, engine, record_deliveries=True)
    if isinstance(system, AcuerdoCluster):
        system.preseed_leader(0)
    system.start()
    engine.run(until=ms(1))

    # Failure schedule: crash at most f nodes, spread over the run.
    f = (n - 1) // 2
    for k, victim in enumerate(crashes[:f]):
        engine.schedule_at(ms(2 + 3 * k), system.crash, victim % n)
    for k, (victim, dur_us) in enumerate(deschedules[:3]):
        procs = system.processes()
        p = procs[victim % len(procs)]
        engine.schedule_at(ms(1 + k), p.deschedule, us(50 + dur_us % 2000))

    def feed(i=0):
        if i >= msgs:
            return
        system.submit(("p", i), 10)
        engine.schedule(us(20), feed, i + 1)

    feed()
    engine.run(until=ms(horizon_ms))
    return system


def _assert_safety(system, msgs: int) -> None:
    system.deliveries.check_total_order()
    system.deliveries.check_no_duplication()
    system.deliveries.check_integrity({("p", i) for i in range(msgs)})
    assert finish_monitors(system.engine) == []


schedule = st.tuples(
    st.integers(0, 2**16),                                   # seed
    st.lists(st.integers(0, 8), max_size=2),                 # crash victims
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2000)), max_size=3),
)


@settings(max_examples=budget(20), deadline=None)
@given(schedule)
# Leader 0 is descheduled holding ('p', 0), which no follower accepted,
# and wakes two epochs later; the diff it then accepts starts above
# that leftover, which must be dropped, not delivered.
@example(sched=(0, [4], [(0, 1796)]))
def test_acuerdo_safety_under_failures(sched):
    seed, crashes, deschedules = sched
    system = _run_schedule("acuerdo", 5, seed, crashes, deschedules,
                           msgs=40, horizon_ms=15)
    _assert_safety(system, 40)


@settings(max_examples=budget(10), deadline=None)
@given(schedule)
def test_derecho_safety_under_failures(sched):
    seed, crashes, deschedules = sched
    system = _run_schedule("derecho-leader", 3, seed, crashes[:1], deschedules,
                           msgs=30, horizon_ms=15)
    _assert_safety(system, 30)


def test_derecho_cut_off_member_leads_no_view_change():
    """A descheduled member that sees nobody live must not install a
    view of itself alone: that was a second leader for the next view
    (``single_leader_per_term``)."""
    system = _run_schedule("derecho-leader", 3, 0, [1], [(0, 0), (0, 347)],
                           msgs=30, horizon_ms=15)
    _assert_safety(system, 30)


@settings(max_examples=budget(10), deadline=None)
@given(schedule)
def test_apus_safety_under_failures(sched):
    seed, crashes, deschedules = sched
    system = _run_schedule("apus", 3, seed, crashes[:1], deschedules,
                           msgs=30, horizon_ms=15)
    _assert_safety(system, 30)


@settings(max_examples=budget(8), deadline=None)
@given(schedule)
def test_zab_safety_under_failures(sched):
    seed, crashes, deschedules = sched
    system = _run_schedule("zookeeper", 3, seed, crashes[:1], deschedules,
                           msgs=20, horizon_ms=80)
    _assert_safety(system, 20)


@settings(max_examples=budget(8), deadline=None)
@given(schedule)
def test_raft_safety_under_failures(sched):
    seed, crashes, deschedules = sched
    system = _run_schedule("etcd", 3, seed, crashes[:1], deschedules,
                           msgs=15, horizon_ms=120)
    _assert_safety(system, 15)


@settings(max_examples=budget(8), deadline=None)
@given(schedule)
def test_paxos_safety_under_failures(sched):
    seed, crashes, deschedules = sched
    system = _run_schedule("libpaxos", 3, seed, crashes[:1], deschedules,
                           msgs=25, horizon_ms=60)
    _assert_safety(system, 25)


@settings(max_examples=budget(12), deadline=None)
@given(st.integers(0, 2**16), st.lists(st.integers(0, 8), max_size=2))
def test_acuerdo_liveness_with_quorum(seed, crashes):
    """When at most f nodes crash and the rest run, committed messages
    keep flowing after fail-over (liveness under the paper's fault
    model)."""
    system = _run_schedule("acuerdo", 5, seed, crashes, [], msgs=40,
                           horizon_ms=25)
    live = [p.node_id for p in system.processes() if not p.crashed]
    assert len(live) >= 3
    delivered = max(system.deliveries.delivered_count(i) for i in live)
    assert delivered >= 35  # open-loop drops during elections tolerated
    assert finish_monitors(system.engine) == []
