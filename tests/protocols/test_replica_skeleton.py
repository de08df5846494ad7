"""The replica skeleton every system shares (``repro.protocols.base``).

One ``submit``, one ``crash`` and one client queue serve all eleven
systems, so the two ways a node crashes — ``BroadcastSystem.crash`` and
a scheduled ``RunSpec.crashes`` entry through the failure injector —
are the same host crash: the process halts and its transport goes down
with it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.harness import RunSpec
from repro.harness.factory import EXTENSION_SYSTEMS, SYSTEMS, prepare
from repro.sim import ms, us

ALL_SYSTEMS = SYSTEMS + EXTENSION_SYSTEMS


def _feed(system, gap_ns=us(5)):
    """Submit a payload every ``gap_ns`` for the rest of the run; returns
    the list commit callbacks append to."""
    engine = system.engine
    done: list = []
    seq = itertools.count()

    def go():
        system.submit(("p", next(seq)), 10, done.append)
        engine.schedule(gap_ns, go)

    go()
    return done


def _outcome(system, done):
    return (system.engine.events_executed, system.substrate_counters(),
            len(done), [p.crashed for p in system.processes()])


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_scheduled_crash_equals_system_crash(name):
    spec = RunSpec(system=name, n=3, seed=3)
    via_system = prepare(spec)
    t0 = via_system.engine.now
    via_system.engine.schedule_at(t0 + ms(0.3), via_system.crash, 1)
    done = _feed(via_system)
    via_system.engine.run(until=t0 + ms(2))

    via_spec = prepare(spec.replace(crashes=("1@0.3",)))
    assert via_spec.engine.now == t0
    done_spec = _feed(via_spec)
    via_spec.engine.run(until=t0 + ms(2))

    assert _outcome(via_spec, done_spec) == _outcome(via_system, done)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_crash_of_unknown_node_raises(name):
    system = prepare(RunSpec(system=name, n=3))
    with pytest.raises(KeyError):
        system.crash(99)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_submit_without_leader_is_refused_untouched(name):
    system = prepare(RunSpec(system=name, n=3, capture_spans=True))
    for nid in system.node_ids:
        system.crash(nid)
    assert system.leader_id() is None
    obs = system.engine.obs
    spans = obs.open_spans
    assert system.submit("refused", 10) is False
    assert obs.open_spans == spans
    assert all(not nd.pending for nd in system.nodes.values())


@pytest.mark.parametrize("name", [s for s in ALL_SYSTEMS if s != "derecho-all"])
def test_submit_enqueues_once_at_the_leader(name):
    system = prepare(RunSpec(system=name, n=3, capture_spans=True))
    obs = system.engine.obs
    spans = obs.open_spans
    ldr = system.leader_id()
    before = {i: len(nd.pending) for i, nd in system.nodes.items()}
    assert system.submit("one", 10) is True
    after = {i: len(nd.pending) for i, nd in system.nodes.items()}
    assert {i: after[i] - before[i] for i in after} == {
        i: int(i == ldr) for i in after}
    assert system.nodes[ldr].pending[-1][0] == "one"
    assert obs.open_spans == spans + 1


def test_derecho_all_submits_round_robin_over_senders():
    system = prepare(RunSpec(system="derecho-all", n=3))
    targets = []
    for i in range(6):
        before = {j: len(nd.pending) for j, nd in system.nodes.items()}
        assert system.submit(("rr", i), 10) is True
        targets += [j for j, nd in system.nodes.items()
                    if len(nd.pending) > before[j]]
    assert targets == [0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("name", ["mu", "dare"])
def test_majority_crash_commits_nothing_on_completions_alone(name):
    """Mu and DARE count a signaled write's completion as the follower's
    acceptance.  With both followers of n=3 crashed, writes still in
    flight are never placed; their completions must not report success,
    or the leader commits slots no quorum accepted."""
    system = prepare(RunSpec(system=name, n=3, check_invariants=True))
    engine = system.engine
    t0 = engine.now
    _feed(system, gap_ns=500)
    for f in (1, 2):
        engine.schedule_at(t0 + us(120), system.crash, f)
    engine.run(until=t0 + ms(1))
    assert engine.monitors.finish() == []
