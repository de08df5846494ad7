"""Quiet Commit-SST heartbeats: which rows stay loud, and that eliding the
quiet ones' polls changes nothing an unparked cluster would do.

Every scenario runs twice — parked (production) and under
``tests.park_reference.park_mode(False)``, the unparked oracle — and
compares what the nodes did and when.  Heartbeat stamps are compared
poll by poll: a parked node owes them only by its next real poll, so
each real poll must leave ``_peer_hb`` exactly as the oracle's poll at
that instant does.
"""

import importlib.util
import pathlib
import sys

from repro.core import AcuerdoCluster, AcuerdoConfig
from repro.core.node import Role
from repro.core.types import CommitRow, Epoch, MsgHdr
from repro.sim import Engine, FailureInjector, ms, us
from repro.workloads.openloop import OpenLoopClient
from tests.park_reference import park_mode


def _cluster(n=3, seed=4):
    e = Engine(seed=seed)
    c = AcuerdoCluster(e, n)
    c.preseed_leader(0)
    c.hb_after_poll = {}
    for nd in c.nodes.values():
        _spy(nd, c.hb_after_poll)
    c.start()
    return e, c


def _spy(nd, into):
    poll = nd.on_poll

    def on_poll():
        poll()
        into[nd.node_id, nd.engine.now] = dict(nd._peer_hb)

    nd.on_poll = on_poll


def _tap(obj, name, note):
    """Call ``note(*args)`` before every ``obj.name(*args)``."""
    inner = getattr(obj, name)

    def tapped(*args):
        note(*args)
        return inner(*args)

    setattr(obj, name, tapped)


def _state(e, c):
    return (e.trace.fingerprint(), sorted(e.trace.summary().items()),
            sorted(c.substrate_counters().items()),
            [(i, nd.role, nd.E_cur, nd.Committed, sorted(nd._evicted))
             for i, nd in c.nodes.items() if not nd.crashed])


def _assert_same(parked, oracle):
    """``parked``/``oracle``: (engine, cluster) after identical runs."""
    assert _state(*parked) == _state(*oracle)
    stamps, truth = parked[1].hb_after_poll, oracle[1].hb_after_poll
    assert stamps.items() <= truth.items()
    assert len(stamps) < len(truth)


def test_verdict_keeps_rows_a_poll_would_act_on_loud():
    _e, c = _cluster()
    ldr, fol = c.nodes[0], c.nodes[1]
    e1 = Epoch(1, 0)
    old = CommitRow(MsgHdr(e1, 4), 7)
    beat = CommitRow(MsgHdr(e1, 4), 8)
    commit = CommitRow(MsgHdr(e1, 5), 8)
    # A follower: its leader's row is quiet only while `committed` rests;
    # another follower's row never makes it act.
    assert fol.heartbeat_is_quiet(0, old, beat)
    assert not fol.heartbeat_is_quiet(0, old, commit)
    assert fol.heartbeat_is_quiet(2, old, commit)
    # The leader commits off the Accept-SST, so follower rows are quiet...
    assert ldr.heartbeat_is_quiet(1, old, commit)
    # ...unless the sender is evicted (the stamp re-admits it)...
    ldr._evicted.add(1)
    assert not ldr.heartbeat_is_quiet(1, old, beat)
    ldr._evicted.clear()
    # ...or the counter did not advance (a replayed row).
    assert not ldr.heartbeat_is_quiet(1, beat, old)
    assert not ldr.heartbeat_is_quiet(1, old, old)


def test_heartbeats_are_elided_but_stamped_on_the_unparked_ticks():
    def run(parked):
        with park_mode(parked):
            e, c = _cluster()
            for k in range(40):
                e.schedule_at(us(3) + k * us(7), c.submit, ("m", k), 64)
            e.run(until=us(400))
        return e, c

    parked, oracle = run(True), run(False)
    _assert_same(parked, oracle)
    # 200 heartbeat periods x 3 nodes x 2 peer rows landed; a parked
    # node polls for its own 2 us push and for messages, not for them.
    assert len(parked[1].hb_after_poll) < 200 * 3 * 2


def test_evicted_peer_heartbeat_stays_loud_and_readmits_on_the_same_tick():
    def run(parked):
        with park_mode(parked):
            e, c = _cluster()
            ldr = c.nodes[0]
            flips = []
            _tap(ldr._ring, "exclude_from_accounting",
                 lambda p: flips.append(("out", p, e.now)))
            _tap(ldr._ring, "include_in_accounting",
                 lambda p, _seq: flips.append(("in", p, e.now)))
            # Node 2 loses its core for longer than the eviction horizon
            # (3 x leader_timeout = 1.2 ms), then resumes heartbeating.
            FailureInjector(e, c.processes()).deschedule_at(us(50), 2, us(1500))
            e.run(until=ms(2))
        return flips, (e, c)

    parked_flips, parked = run(True)
    oracle_flips, oracle = run(False)
    assert [f[:2] for f in oracle_flips] == [("out", 2), ("in", 2)]
    assert parked_flips == oracle_flips
    _assert_same(parked, oracle)


def test_crash_with_a_pending_quiet_log():
    def run(parked, crash_at=None):
        with park_mode(parked):
            e, c = _cluster()
            nd = c.nodes[2]
            seen = {}

            def crash_follower():
                seen["at"], seen["logged"] = e.now, len(nd._quiet_log)
                c.crash(2)
                seen["after"] = len(nd._quiet_log)

            def probe():
                if nd.parked and nd._quiet_log:
                    crash_follower()
                else:
                    e.schedule(50, probe)

            e.schedule_at(crash_at or us(30), crash_follower if crash_at else probe)
            for k in range(10):
                e.schedule_at(us(3) + k * us(9), c.submit, ("m", k), 64)
            e.run(until=us(700))     # past the 400 us leader timeout
        return seen, (e, c)

    # A dry run finds an instant at which node 2 sleeps on logged rows.
    crash_at = run(True)[0]["at"]
    seen, parked = run(True, crash_at)
    _, oracle = run(False, crash_at)
    assert seen["logged"] > 0 and seen["after"] == 0
    assert not any(n == 2 and t > crash_at for n, t in parked[1].hb_after_poll)
    _assert_same(parked, oracle)


def test_two_leader_crashes_elect_at_identical_times():
    def run(parked):
        with park_mode(parked):
            e, c = _cluster(n=5, seed=11)
            wins = []
            _tap(c, "note_new_leader", lambda nid: wins.append((nid, e.now)))
            k = 0
            for t in range(us(5), ms(3), us(11)):
                e.schedule_at(t, c.submit, ("m", k), 64)
                k += 1
            e.schedule_at(us(600), lambda: c.crash(c.leader_id()))
            e.schedule_at(us(1800), lambda: c.crash(c.leader_id()))
            e.run(until=ms(3))
            c.deliveries.check_total_order()
        return wins, (e, c)

    parked_wins, parked = run(True)
    oracle_wins, oracle = run(False)
    assert len(oracle_wins) == 2
    assert parked_wins == oracle_wins
    _assert_same(parked, oracle)
    assert [nd.role for nd in parked[1].nodes.values()
            if not nd.crashed].count(Role.LEADER) == 1


def test_lightly_loaded_deployment_parks_away_most_events():
    """One 64 B message per 50 us against a 20 us heartbeat — the
    cadence was the floor on how long an idle replica stays parked,
    until its pushes rode heartbeat trains.  The run must equal the
    oracle's and execute at least 3x fewer events (measured 34.0x: 3 636
    against 123 788 over these 10 ms; 14.3x before trains)."""
    def run(parked):
        with park_mode(parked):
            e = Engine(seed=7)
            c = AcuerdoCluster(e, 3, AcuerdoConfig(commit_push_period_ns=us(20)))
            c.preseed_leader(0)
            c.start()
            client = OpenLoopClient(c, period_ns=us(50), message_size=64)
            client.start()
            e.run(until=ms(10))
            client.stop()
        return (client.committed, sorted(c.deliveries.counts.items()),
                e.trace.fingerprint(), c.leader_id(), e.now), e.events_executed

    (parked, parked_events), (oracle, oracle_events) = run(True), run(False)
    assert parked == oracle and parked[0] > 150
    assert 3 * parked_events <= oracle_events


def test_any_engine_event_observes_what_trains_elided():
    """An idle group's pushes ride heartbeat trains, and the engine
    catches them up before it dispatches any event, not only the
    group's own polls and landings: a plain event reading Commit-SST
    copies and NIC counters every 7 us sees what the unparked oracle
    sees (each of the 39 reads differed while only the group's own
    events caught trains up)."""
    def run(parked):
        with park_mode(parked):
            e = Engine(seed=3)
            c = AcuerdoCluster(e, 3)
            c.preseed_leader(0)
            c.start()
            e.run(until=ms(1))
            snaps = []

            def snapshot():
                snaps.append((
                    {r: dict(copy) for r, copy in c.commit_sst.copies.items()},
                    [c.fabric.nic(i).tx_msgs for i in c.node_ids]))

            for k in range(1, 40):
                e.schedule_at(ms(1) + k * us(7), snapshot)
            e.run(until=ms(1) + us(280))
        return snaps

    parked, oracle = run(True), run(False)
    assert len(oracle) == 39
    assert parked == oracle


def test_trains_stop_at_a_cut_and_resume_after_the_heal():
    """A heartbeat train never crosses a cut: while a partition is set,
    no replica of an idle group rides a train or has a pure push, so
    every push is posted eagerly and dropped at the cut QP.  Trains
    resume once the heal lets the pushes through, and the run equals
    the unparked oracle's throughout."""
    def run(parked):
        with park_mode(parked):
            e, c = _cluster()
            trains = c.fabric.trains
            seen = []

            def probe():
                pure = [trains.pure_pushes(nd) for nd in c.nodes.values()]
                seen.append((ms(1) < e.now < ms(2), len(trains._trains), pure))

            for k in range(30):
                e.schedule_at(us(50) + k * us(100), probe)
            e.schedule_at(ms(1), c.fabric.set_partition, {0, 1}, {2})
            e.schedule_at(ms(2), c.fabric.heal_partition)
            e.run(until=ms(3))
        return (e, c), seen

    parked, seen = run(True)
    oracle, _ = run(False)
    _assert_same(parked, oracle)
    during = [(n, pure) for cut, n, pure in seen if cut]
    assert len(during) == 10
    assert all(n == 0 and pure == [0, 0, 0] for n, pure in during)
    assert max(n for _cut, n, _pure in seen[:10]) > 0     # before the cut
    assert max(n for _cut, n, _pure in seen[20:]) > 0     # after the heal


def _bench_workloads():
    path = pathlib.Path(__file__).resolve().parents[2] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module     # dataclasses resolve their module
        spec.loader.exec_module(module)
    return module


def test_floor_workload_runs_at_most_22_events_per_commit():
    """Heartbeat trains (repro.core.trains): on the benchmark's
    unloaded-latency point every idle replica's Commit-SST pushes ride
    its virtual poll ticks, so a commit costs the engine at most 22
    events (49.4 when each push woke its sender and scheduled a landing
    per peer; 19.9 with trains, seed 3)."""
    p = _bench_workloads().prepare("acuerdo_floor_64b_w1", 3, 0.05)
    before = p.engine.events_executed
    p.drive(lambda: None)
    commits = len(p.client.ack_times)
    assert commits > 300
    assert p.engine.events_executed - before <= 22 * commits
