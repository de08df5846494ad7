"""Unit tests for poll-elision parking (doorbells, horizons, wakes)."""

import pytest

from repro.sim import Engine, FailureInjector, Process, ProcessConfig, us
from repro.sim.disk import Disk
from tests.park_reference import park_mode


class IdleParker(Process):
    """Always-idle process: parks whenever allowed, records poll times."""

    def __init__(self, engine, node_id=0, config=None, deadline_in=None):
        super().__init__(engine, node_id, config)
        self.polls = []
        self.deadline_in = deadline_in

    def on_poll(self):
        self.polls.append(self.engine.now)

    def park_ready(self):
        return True

    def park_deadline(self):
        if self.deadline_in is None:
            return None
        return self.engine.now + self.deadline_in


class Noticing(IdleParker):
    """Records the first poll that runs after ``changed`` was set."""

    changed = False
    noticed_at = None

    def on_poll(self):
        super().on_poll()
        if self.changed and self.noticed_at is None:
            self.noticed_at = self.engine.now


def _cfg(**kw):
    kw.setdefault("poll_interval_ns", 100)
    kw.setdefault("poll_jitter_ns", 50)
    return ProcessConfig(**kw)


def _run(parked, ring=None, until=us(50), deadline_in=None, **cfg_kw):
    with park_mode(parked):
        e = Engine(seed=9)
        p = IdleParker(e, config=_cfg(**cfg_kw), deadline_in=deadline_in)
        p.start()
        if ring is not None:
            at, fn = ring
            e.schedule_at(at, fn, p)
        e.run(until=until)
    return p, e


def _first_poll_at_or_after(polls, at):
    return min(t for t in polls if t >= at)


def test_doorbell_wakes_on_baseline_schedule():
    """A doorbell wake lands exactly on the tick the unparked loop would
    have polled at — same RNG stream, same jitter draws."""
    ring_at = 12_345
    baseline, _ = _run(False, ring=(ring_at, lambda p: p.doorbell(ring_at)))
    parked, _ = _run(True, ring=(ring_at, lambda p: p.doorbell(ring_at)))
    assert parked.polls[-1] in baseline.polls
    assert parked.polls[-1] == min(t for t in baseline.polls if t >= ring_at)
    # Only the first poll (pre-park) and the wake poll executed.
    assert len(parked.polls) < len(baseline.polls)


def test_doorbell_only_park_sleeps_indefinitely():
    p, e = _run(True)
    assert p.parked
    assert len(p.polls) == 1  # the poll that parked; nothing after


def test_horizon_wake_follows_deadline():
    """With a 5 us deadline the parked loop polls once per horizon, on
    ticks the unparked schedule also hits."""
    baseline, _ = _run(False, deadline_in=us(5))
    parked, _ = _run(True, deadline_in=us(5))
    assert set(parked.polls) <= set(baseline.polls)
    # One horizon wake per ~5 us, not one poll per ~125 ns.
    assert 5 <= len(parked.polls) <= 15
    gaps = [b - a for a, b in zip(parked.polls, parked.polls[1:])]
    assert all(g >= us(5) for g in gaps)


def test_crash_while_parked_stays_silent():
    def crash_then_ring(p):
        p.crash()
        p.doorbell(p.engine.now)
    p, _ = _run(True, ring=(us(10), crash_then_ring), until=us(30))
    assert p.crashed
    assert all(t <= us(10) for t in p.polls)


def test_request_poll_wakes_parked_loop():
    ring_at = 7_777
    baseline, _ = _run(False, ring=(ring_at, lambda p: p.request_poll()))
    parked, _ = _run(True, ring=(ring_at, lambda p: p.request_poll()))
    assert parked.polls[-1] == min(t for t in baseline.polls if t >= ring_at)


def test_slow_node_wakes_on_stretched_schedule():
    """speed_factor stretches the poll gaps; the parked wake must land
    on the stretched baseline schedule, not the nominal one."""
    ring_at = 23_456
    kw = dict(speed_factor=10.0)
    baseline, _ = _run(False, ring=(ring_at, lambda p: p.doorbell(ring_at)), **kw)
    parked, _ = _run(True, ring=(ring_at, lambda p: p.doorbell(ring_at)), **kw)
    assert parked.polls[-1] == min(t for t in baseline.polls if t >= ring_at)


def test_out_of_poll_cpu_charge_rederives_schedule():
    """Out-of-poll work that advances busy_until must ring request_poll;
    the woken loop then reproduces the unparked busy_until + 1 fallback
    schedule exactly.  A busy CPU no longer keeps the loop on the heap:
    it re-parks at once with busy_until + 1 as the floor of its next
    virtual tick."""
    def stall_and_ring(p):
        p.cpu.stall(us(5))
        p.request_poll()

    def run(parked):
        with park_mode(parked):
            e = Engine(seed=9)
            p = IdleParker(e, config=_cfg())
            p.start()
            e.schedule_at(1_000, stall_and_ring, p)
            e.schedule_at(us(4), p.doorbell, us(4))     # lands while still busy
            e.schedule_at(us(8), p.doorbell, us(8))     # lands after the drain
            e.run(until=us(10))
        return p

    baseline, parked = run(False), run(True)
    assert parked.parked
    woken = [t for t in parked.polls if t >= 1_000]
    expected = [_first_poll_at_or_after(baseline.polls, at)
                for at in (1_000, us(4), us(8))]
    assert woken == expected
    assert expected[1] == 1_000 + us(5) + 1     # the busy_until + 1 floor


def test_deschedule_flushes_the_parked_loop_first():
    """A deschedule stalls the CPU under a parked loop: the poll already
    due keeps its tick, its successors wait for busy_until + 1 — so a
    doorbell during the stall is not noticed before the CPU is back."""
    def run(parked):
        with park_mode(parked):
            e = Engine(seed=9)
            p = IdleParker(e, config=_cfg())
            p.start()
            e.schedule_at(us(10), p.deschedule, us(5))
            e.schedule_at(us(12), p.doorbell, us(12))
            e.run(until=us(20))
        return p

    baseline, parked = run(False), run(True)
    seen = _first_poll_at_or_after(baseline.polls, us(12))
    assert seen == us(15) + 1
    assert [t for t in parked.polls if t >= us(10)] == \
        [_first_poll_at_or_after(baseline.polls, us(10)), seen]


def test_slow_node_flushes_the_parked_loop_first():
    """Ticks up to the pending poll were drawn at the old speed factor;
    replaying them after slow_node() changed it would stretch them."""
    def run(parked):
        with park_mode(parked):
            e = Engine(seed=9)
            p = IdleParker(e, config=_cfg())
            p.start()
            e.schedule_at(us(10), FailureInjector(e, [p]).slow_node, p, 7.5)
            e.schedule_at(us(20), p.doorbell, us(20))
            e.run(until=us(30))
        return p

    baseline, parked = run(False), run(True)
    assert [t for t in parked.polls if t >= us(10)] == \
        [_first_poll_at_or_after(baseline.polls, at) for at in (us(10), us(20))]


@pytest.mark.parametrize("scheduled_after_previous_tick", [True, False])
def test_request_poll_on_a_tick_respects_event_order(scheduled_after_previous_tick):
    """A local wake landing exactly on a poll tick: the unparked poll of
    that tick was scheduled at the tick before, so it runs first — and
    misses the change — iff the waking event was scheduled after that."""
    def change(p):
        p.changed = True
        p.request_poll()

    ticks, _ = _run(False, until=us(5))
    prev, tick, after = ticks.polls[20:23]
    post_at = prev + 1 if scheduled_after_previous_tick else prev - 1

    def run(parked):
        with park_mode(parked):
            e = Engine(seed=9)
            p = Noticing(e, config=_cfg())
            p.start()
            e.schedule_at(post_at, e.schedule_at, tick, change, p)
            e.run(until=us(5))
        return p

    baseline, parked = run(False), run(True)
    assert baseline.noticed_at == (after if scheduled_after_previous_tick else tick)
    assert parked.noticed_at == baseline.noticed_at


def _disk_run(parked, append_at, fsync_ns):
    """One append whose completion flags the owner and charges its CPU,
    as an fsync callback sending an ACK does."""
    with park_mode(parked):
        e = Engine(seed=9)
        p = Noticing(e, config=_cfg())
        disk = Disk(e, fsync_ns, owner=p)

        def durable():
            p.changed = True
            p.cpu.stall(us(2))

        p.start()
        e.schedule_at(append_at, disk.append, durable)
        e.run(until=us(12))
    return p


def test_disk_completion_wakes_parked_owner_on_the_unparked_tick():
    """The device rings before its callbacks run: the poll already due
    keeps its tick, and the ones after it wait for the charged CPU."""
    baseline, parked = (_disk_run(a, 1_000, us(4)) for a in (False, True))
    done = 1_000 + us(4)
    assert baseline.noticed_at == _first_poll_at_or_after(baseline.polls, done)
    assert baseline.noticed_at < done + us(2)       # not pushed by the charge
    assert parked.noticed_at == baseline.noticed_at
    assert [t for t in parked.polls if t >= done] == [parked.noticed_at]
    assert parked.parked
    # The tick after it was drawn against the charged CPU on both sides.
    assert parked._park_next == min(t for t in baseline.polls
                                    if t > baseline.noticed_at) == done + us(2) + 1


@pytest.mark.parametrize("synced_after_previous_tick", [True, False])
def test_disk_completion_on_a_tick_respects_event_order(synced_after_previous_tick):
    """A completion landing exactly on a virtual tick: that tick's poll
    was scheduled at the tick before, so it runs first — and misses the
    completion — iff the sync started after that."""
    ticks, _ = _run(False, until=us(5))
    prev, tick, after = ticks.polls[20:23]
    start = prev + 1 if synced_after_previous_tick else prev - 1
    baseline, parked = (_disk_run(a, start, tick - start) for a in (False, True))
    assert baseline.noticed_at == (after if synced_after_previous_tick else tick)
    assert parked.noticed_at == baseline.noticed_at


def test_epoll_poll_of_a_parked_loop_is_elided_until_its_deadline():
    """wake() is the epoll notification of the two-sided substrates.  Its
    poll is a no-op on a parked loop by the park contract — except on
    the deadline instant itself, where the epoll poll (scheduled before
    the loop parked, so ahead of the horizon event) is the one that
    acts.  An unparked loop's epoll poll always runs."""
    first, _ = _run(False, until=us(1))
    deadline = first.polls[0] + us(5)       # IdleParker parks at its first poll
    early = us(2) + 1

    def run(parked):
        with park_mode(parked):
            e = Engine(seed=9)
            p = IdleParker(e, config=_cfg(), deadline_in=us(5))
            p.start()
            p.wake(us(2))
            p.wake(deadline - 1)
            e.run(until=deadline)
        return p

    baseline, parked = run(False), run(True)
    assert early in baseline.polls and deadline in baseline.polls
    assert early not in parked.polls
    assert parked.polls == [first.polls[0], deadline]


def test_deschedules_disable_parking():
    e = Engine(seed=9)
    cfg = ProcessConfig(poll_interval_ns=100, poll_jitter_ns=50,
                        deschedule_mean_interval_ns=us(5))
    p = IdleParker(e, config=cfg)
    p.start()
    e.run(until=us(20))
    assert not p.parked  # deschedule draws share the RNG stream


def test_parking_preserves_rng_stream_for_later_draws():
    """After a wake, subsequent real polls continue the identical jitter
    sequence: every parked-run poll time appears in the baseline run."""
    ring_at = 3_333

    class WakesThenRuns(IdleParker):
        def park_ready(self):
            # Park only before the doorbell; afterwards poll for real.
            return self.engine.now < ring_at

    def run(parked):
        with park_mode(parked):
            e = Engine(seed=9)
            p = WakesThenRuns(e, config=_cfg())
            p.start()
            e.schedule_at(ring_at, p.doorbell, ring_at)
            e.run(until=us(10))
        return p.polls

    baseline, parked = run(False), run(True)
    assert [t for t in baseline if t >= ring_at] == \
        [t for t in parked if t >= ring_at]


# --------------------------------------------------------------- engine side


def test_schedule_rejects_fractional_timestamps():
    e = Engine()
    with pytest.raises(ValueError):
        e.schedule_at(1.5, lambda: None)
    with pytest.raises(ValueError):
        e.schedule(2.7, lambda: None)
    # Integral floats are accepted and coerced.
    ev = e.schedule_at(3.0, lambda: None)
    assert ev.time == 3


def test_events_executed_counts_lifetime():
    e = Engine()
    for i in range(5):
        e.schedule(i + 1, lambda: None)
    e.run()
    assert e.events_executed == 5
    e.schedule(1, lambda: None)
    assert e.step() is True
    assert e.events_executed == 6
    assert e.step() is False
    assert e.events_executed == 6
