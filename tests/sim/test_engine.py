"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, us, ms, sec


def test_time_helpers_convert_to_ns():
    assert us(1) == 1_000
    assert ms(1) == 1_000_000
    assert sec(1) == 1_000_000_000
    assert us(2.5) == 2_500


def test_events_run_in_time_order():
    e = Engine()
    order = []
    e.schedule(30, order.append, "c")
    e.schedule(10, order.append, "a")
    e.schedule(20, order.append, "b")
    e.run()
    assert order == ["a", "b", "c"]
    assert e.now == 30


def test_ties_break_by_schedule_order():
    e = Engine()
    order = []
    for tag in ("first", "second", "third"):
        e.schedule(5, order.append, tag)
    e.run()
    assert order == ["first", "second", "third"]


def test_schedule_at_absolute_time():
    e = Engine()
    seen = []
    e.schedule_at(100, lambda: seen.append(e.now))
    e.run()
    assert seen == [100]


def test_cannot_schedule_in_past():
    e = Engine()
    e.schedule(10, lambda: None)
    e.run()
    with pytest.raises(ValueError):
        e.schedule_at(5, lambda: None)
    with pytest.raises(ValueError):
        e.schedule(-1, lambda: None)


def test_cancelled_events_do_not_fire():
    e = Engine()
    seen = []
    ev = e.schedule(10, seen.append, "x")
    e.schedule(5, ev.cancel)
    e.run()
    assert seen == []


def test_run_until_advances_clock_even_without_events():
    e = Engine()
    e.schedule(10, lambda: None)
    e.run(until=500)
    assert e.now == 500


def test_run_until_does_not_execute_later_events():
    e = Engine()
    seen = []
    e.schedule(10, seen.append, "early")
    e.schedule(100, seen.append, "late")
    e.run(until=50)
    assert seen == ["early"]
    e.run()
    assert seen == ["early", "late"]


def test_events_scheduled_during_run_execute():
    e = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            e.schedule(10, chain, n + 1)

    e.schedule(0, chain, 0)
    e.run()
    assert seen == [0, 1, 2, 3]


def test_max_events_bound():
    e = Engine()
    seen = []
    for i in range(10):
        e.schedule(i + 1, seen.append, i)
    executed = e.run(max_events=4)
    assert executed == 4
    assert seen == [0, 1, 2, 3]


def test_stop_halts_run():
    e = Engine()
    seen = []
    e.schedule(1, seen.append, "a")
    e.schedule(2, e.stop)
    e.schedule(3, seen.append, "b")
    e.run()
    assert seen == ["a"]
    e.run()
    assert seen == ["a", "b"]


def test_step_executes_one_event():
    e = Engine()
    seen = []
    e.schedule(1, seen.append, 1)
    e.schedule(2, seen.append, 2)
    assert e.step()
    assert seen == [1]
    assert e.step()
    assert not e.step()


def test_rng_streams_are_deterministic_and_independent():
    a1 = Engine(seed=5).rng("alpha").random()
    a2 = Engine(seed=5).rng("alpha").random()
    b = Engine(seed=5).rng("beta").random()
    c = Engine(seed=6).rng("alpha").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_rng_stream_is_cached_per_engine():
    e = Engine(seed=1)
    assert e.rng("s") is e.rng("s")


def test_idle_reflects_live_events():
    e = Engine()
    assert e.idle()
    ev = e.schedule(10, lambda: None)
    assert not e.idle()
    ev.cancel()
    assert e.idle()


def test_idle_counter_survives_cancel_after_fire():
    # Cancelling an event that already executed must not corrupt the
    # live-event accounting (Process.crash cancels poll events that may
    # have fired already).
    e = Engine()
    ev = e.schedule(5, lambda: None)
    e.schedule(10, lambda: None)
    e.run(until=7)
    ev.cancel()           # already popped: a no-op for the counter
    assert not e.idle()   # the t=10 event is still live
    e.run()
    assert e.idle()


def test_cancelled_heap_compacts_lazily():
    e = Engine()
    events = [e.schedule(1000 + i, lambda: None) for i in range(200)]
    keeper_ran = []
    e.schedule(2000, lambda: keeper_ran.append(True))
    assert e.pending == 201
    for ev in events:
        ev.cancel()
    # More than half the heap was dead weight: it must have compacted.
    assert e.pending < 201
    assert e.live_pending == 1
    assert not e.idle()
    e.run()
    assert keeper_ran == [True]
    assert e.idle()


def test_compaction_during_run_keeps_heap_alias_valid():
    # Regression: _compact() must mutate the heap in place.  If it rebinds
    # self._heap instead, run()'s local alias goes stale — events scheduled
    # after compaction never fire in that run, live-event accounting drifts,
    # and already-executed events fire again on the next run().
    e = Engine()
    fired = []
    victims = []

    def canceller():
        # Kill >half of a 200+-event heap from inside a running event,
        # forcing _compact() mid-run...
        for ev in victims:
            ev.cancel()
        # ...then schedule into the (possibly new) heap.
        e.schedule(50, lambda: fired.append("post"))

    e.schedule(1, lambda: fired.append("early"))
    e.schedule(2, canceller)
    victims.extend(
        e.schedule(1000 + i, lambda: fired.append("victim")) for i in range(200)
    )
    e.schedule(3000, lambda: fired.append("keeper"))

    e.run()
    assert fired == ["early", "post", "keeper"]
    assert e.idle()
    assert e.live_pending == 0
    # A second run must be a no-op: nothing replays from a stale heap.
    assert e.run() == 0
    assert fired == ["early", "post", "keeper"]


def test_double_cancel_counts_once():
    e = Engine()
    ev = e.schedule(10, lambda: None)
    e.schedule(20, lambda: None)
    ev.cancel()
    ev.cancel()
    assert e.live_pending == 1
    e.run()
    assert e.idle()


# ------------------------------------------------- schedule time as a key


def test_backdated_event_takes_the_turn_of_its_schedule_time():
    """Among events due at one instant, a backdated one runs after those
    scheduled up to its ``created`` and before those scheduled later —
    where it would have run had it been scheduled then."""
    e = Engine()
    order = []
    e.schedule_at(100, order.append, "scheduled at 0")

    def at_40():
        e.schedule_at(100, order.append, "scheduled at 40")

    def at_60():
        e.schedule_at(100, order.append, "scheduled at 60")
        e.schedule_backdated(50, 100, order.append, "backdated to 50")
        e.schedule_backdated(40, 100, order.append, "backdated to 40")
        assert e.now == 60

    e.schedule_at(40, at_40)
    e.schedule_at(60, at_60)
    e.run()
    assert order == ["scheduled at 0", "scheduled at 40", "backdated to 40",
                     "backdated to 50", "scheduled at 60"]


def test_backdating_cannot_run_the_clock_backwards():
    """Only the tie-break is backdated: the event time is checked
    against the real clock, not against ``created``."""
    e = Engine()
    e.run(until=100)
    with pytest.raises(ValueError, match="in the past"):
        e.schedule_backdated(50, 70, lambda: None)
    assert e.now == 100 and e.pending == 0


def test_backdating_to_the_future_raises():
    e = Engine()
    e.run(until=100)
    with pytest.raises(ValueError, match="backdate to the future"):
        e.schedule_backdated(120, 150, lambda: None)
    assert e.now == 100 and e.pending == 0


def test_event_created_at_reports_when_the_running_event_was_scheduled():
    e = Engine()
    seen = []

    def note(tag):
        seen.append((tag, e.now, e.event_created_at))

    e.schedule_at(10, e.schedule_at, 30, note, "plain")
    e.schedule_at(12, e.schedule_backdated, 5, 30, note, "backdated")
    e.run(until=50)
    assert seen == [("backdated", 30, 5), ("plain", 30, 10)]
    # Between runs the caller acts after everything due by now.
    assert e.event_created_at == e.now == 50


# ------------------------------------------------------- one heap sink


def test_every_scheduled_event_costs_exactly_one_heap_push():
    """``schedule_at`` is the only way onto the heap, so pushes balance
    against what became of the events: executed, cancelled before
    firing, or still live — across cancellations, a horizon and an
    event budget."""
    e = Engine()
    events = [e.schedule(10 * (i + 1), lambda: None) for i in range(20)]
    e.schedule_backdated(0, 15, lambda: None)
    e.schedule_at(25, lambda: e.schedule(1, lambda: None))
    cancelled = 0
    for ev in events[::3]:
        ev.cancel()
        cancelled += 1
    e.run(until=60)
    e.run(max_events=3)
    e.step()
    events[-1].cancel()
    events[-1].cancel()     # idempotent: still one cancellation
    cancelled += 1
    events[1].cancel()      # already fired: not a cancellation
    assert e.live_pending > 0
    assert e.heap_pushes == e.events_executed + cancelled + e.live_pending


# ----------------------------------------------------------- coercion


def test_schedule_and_schedule_at_share_coercion_rules():
    e = Engine(seed=1)
    with pytest.raises(ValueError, match="non-integral"):
        e.schedule(1.5, lambda: None)
    with pytest.raises(ValueError, match="non-integral"):
        e.schedule_at(1.5, lambda: None)
    # Integral floats coerce identically on both paths.
    ev1 = e.schedule(2.0, lambda: None)
    ev2 = e.schedule_at(2.0, lambda: None)
    assert ev1.time == ev2.time == 2


def test_registered_train_is_caught_up_before_any_event_from_its_due_on():
    e = Engine()
    seen = []

    class Train:
        due = 50

        def catch_up(self):
            seen.append((e.now, e.event_created_at))
            self.due = e.now + 100

    train = Train()
    e.add_train(train)
    ran = []

    def probe(t):
        ran.append((t, len(seen)))
        if t == 60:
            train.due = 80      # moved earlier: it tells the engine
            e.note_due(80)

    for t in (10, 50, 60, 90, 120):
        e.schedule_at(t, probe, t)
    e.run(until=300)
    # 10 precedes the due instant; 50 and 90 find the train due; 120
    # precedes the due set at 90; run() returns at 300 caught up.
    assert ran == [(10, 0), (50, 1), (60, 1), (90, 2), (120, 2)]
    assert seen == [(50, 0), (90, 0), (300, 300)]
