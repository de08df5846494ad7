"""Property: a parked loop polls on unparked ticks and stamps unparked times.

One always-idle process is driven by a random interleaving of everything
that can reach a parked loop from outside — loud deposits, quiet
deposits, local ``request_poll`` wakes, out-of-poll CPU charges,
deschedules, slow-node injection — on top of a periodic deadline and a
poll body that charges CPU for what it handles (so the loop parks
through a busy CPU).  Poll gaps are 3-5 ns, so inputs land exactly on a
poll tick about one time in four and the tie rules carry the test.

The unparked run (``tests.park_reference``) is the oracle: the parked run
must handle every input at the same poll, stamp every quiet deposit
with the tick whose poll first read it, fire every deadline at the same
instant, and leave the CPU equally busy — while polling only on oracle
ticks.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim import Engine, FailureInjector, Process, ProcessConfig
from tests.park_reference import park_mode
from tests.properties import budget

GAP_MIN, GAP_MAX = 3, 5
#: ns between an event being scheduled and landing: often inside the
#: poll gap it lands in, which is where the tie rules matter.
FLIGHT = st.integers(0, 40)
HORIZON = 400


class Observer(Process):
    def __init__(self, engine, period):
        super().__init__(engine, 0, ProcessConfig(
            poll_interval_ns=GAP_MIN, poll_jitter_ns=GAP_MAX - GAP_MIN))
        self.period = period
        self.last_fire = 0
        self.inbox = []      # (item, cpu cost) awaiting a poll
        self.rows = {}       # quiet region: key -> latest value
        self.seen = {}       # key -> value the loop last read
        self.polls = []
        self.handled = []    # (item, poll instant)
        self.fired = []      # (deadline, poll instant)
        self.stamps = {}     # (key, tick) -> value read at that tick

    def on_poll(self):
        now = self.engine.now
        self.polls.append(now)
        for item, cost in self.inbox:
            self.handled.append((item, now))
            self.cpu.busy_until = max(self.cpu.busy_until, now) + cost
        self.inbox.clear()
        for key, value in self.rows.items():
            if self.seen.get(key) != value:
                self.on_quiet_deposit(key, value, now)
        if now - self.last_fire >= self.period:
            self.fired.append((self.last_fire + self.period, now))
            self.last_fire = now

    def on_quiet_deposit(self, key, value, tick):
        self.seen[key] = value
        self.stamps[key, tick] = value

    def park_ready(self):
        return True

    def park_deadline(self):
        return self.last_fire + self.period


EVENT = st.one_of(
    st.tuples(st.just("loud"), FLIGHT, st.integers(0, 9)),
    st.tuples(st.just("quiet"), FLIGHT, st.integers(0, 1)),
    st.tuples(st.just("local"), FLIGHT, st.integers(0, 9)),
    st.tuples(st.just("charge"), FLIGHT, st.integers(1, 30)),
    st.tuples(st.just("deschedule"), FLIGHT, st.integers(1, 30)),
    st.tuples(st.just("slow"), FLIGHT, st.sampled_from([1.0, 1.5, 3.0])),
)
SCRIPT = st.lists(st.tuples(st.integers(0, HORIZON), EVENT), min_size=1, max_size=14)


def run(script, period, seed):
    e = Engine(seed=seed)
    p = Observer(e, period)
    inject = FailureInjector(e, [p])
    quiet_seq = [0]

    def land(i, kind, arg):
        posted_at = e.event_created_at
        if kind == "loud":
            p.inbox.append((i, arg))
            p.doorbell(posted_at)
        elif kind == "quiet":
            quiet_seq[0] += 1
            p.rows[arg] = quiet_seq[0]
            p.quiet_deposit(posted_at, arg, quiet_seq[0])
        elif kind == "local":
            p.inbox.append((i, arg))
            p.request_poll()
        elif kind == "charge":
            p.cpu.stall(arg)
            p.request_poll()
        elif kind == "deschedule":
            p.deschedule(arg)
        else:
            inject.slow_node(p, arg)

    # Posters are all scheduled before the first poll is, so one that
    # fires exactly on a poll tick fires before that tick's poll.  (The
    # other order — an event *scheduled* on one tick landing on the next
    # — is ordered by sequence numbers a parked loop never allocated.)
    for i, (at, (kind, flight, arg)) in enumerate(script):
        e.schedule_at(at, e.schedule, flight, land, i, kind, arg)
    p.start()
    e.run(until=HORIZON + 200)
    return p


@settings(max_examples=budget(300), deadline=None)
@given(script=SCRIPT, period=st.integers(20, 120), seed=st.integers(0, 50))
def test_parked_loop_matches_unparked_oracle(script, period, seed):
    with park_mode(False):
        oracle = run(script, period, seed)
    parked = run(script, period, seed)
    assert parked.handled == oracle.handled
    assert parked.fired == oracle.fired
    assert parked.stamps == oracle.stamps
    assert parked.cpu.busy_until == oracle.cpu.busy_until
    assert set(parked.polls) <= set(oracle.polls)
    assert parked.polls == sorted(set(parked.polls))
