"""Unit tests for the CPU resource and polling process model."""

from repro.obs.spans import SpanRecorder
from repro.sim import Engine, FailureInjector, Process, ProcessConfig, us
from repro.sim.process import Cpu


class Recorder(Process):
    """Process that records its poll times."""

    def __init__(self, engine, node_id=0, config=None):
        super().__init__(engine, node_id, config)
        self.polls = []

    def on_poll(self):
        self.polls.append(self.engine.now)


def test_cpu_charges_serial_time():
    e = Engine()
    cpu = Cpu(e, "test")
    done = []
    cpu.submit(100, done.append, "a")
    cpu.submit(50, done.append, "b")
    e.run()
    assert done == ["a", "b"]
    assert cpu.busy_until == 150  # serialized, not parallel


def test_cpu_speed_factor_scales_cost():
    e = Engine()
    cpu = Cpu(e, "slow", speed_factor=3.0)
    cpu.submit(100, lambda: None)
    e.run()
    assert e.now == 300


def test_cpu_charge_serialises_behind_busy_until():
    e = Engine()
    cpu = Cpu(e, "test")
    assert cpu.charge(100) == 100
    assert cpu.charge(50) == 150        # queued behind the first charge
    e.run(until=1_000)
    assert cpu.charge(10) == 1_010      # an idle CPU starts from now
    assert cpu.busy_until == 1_010


def test_cpu_charge_scales_by_speed_factor():
    e = Engine()
    cpu = Cpu(e, "slow", speed_factor=2.5)
    assert cpu.charge(100) == 250
    assert cpu.charge(3) == 250 + int(3 * 2.5)


def test_cpu_charge_int_fast_path_equals_float_arithmetic():
    e = Engine()
    for cost in (0, 1, 599, 120_000, 2 ** 40 + 1):
        assert Cpu(e, "unit").charge(cost) == int(cost * 1.0)
    # A float cost takes the scaled path even at unit speed.
    assert Cpu(e, "unit").charge(2.5) == 2


def test_cpu_submit_is_charge_then_run():
    e = Engine()
    charged, submitted = Cpu(e, "a", 3.0), Cpu(e, "b", 3.0)
    charged.charge(40)
    submitted.submit(40, lambda: None)
    assert submitted.busy_until == charged.busy_until == 120
    e.run()
    assert e.now == 120


def test_cpu_stall_pushes_work_back():
    e = Engine()
    cpu = Cpu(e, "test")
    done = []
    cpu.stall(1000)
    cpu.submit(10, done.append, "late")
    e.run()
    assert e.now == 1010


def test_halted_cpu_drops_work():
    e = Engine()
    cpu = Cpu(e, "test")
    done = []
    cpu.submit(10, done.append, "x")
    cpu.halt()
    e.run()
    assert done == []


def test_process_polls_repeatedly():
    e = Engine(seed=1)
    p = Recorder(e, config=ProcessConfig(poll_interval_ns=100, poll_jitter_ns=0))
    p.start()
    e.run(until=us(1))
    assert len(p.polls) >= 8
    gaps = [b - a for a, b in zip(p.polls, p.polls[1:])]
    assert all(g >= 100 for g in gaps)


def test_poll_jitter_varies_gaps():
    e = Engine(seed=3)
    p = Recorder(e, config=ProcessConfig(poll_interval_ns=100, poll_jitter_ns=100))
    p.start()
    e.run(until=us(5))
    gaps = {b - a for a, b in zip(p.polls, p.polls[1:])}
    assert len(gaps) > 1  # jitter actually applied


def test_crash_stops_polling():
    e = Engine(seed=1)
    p = Recorder(e)
    p.start()
    e.schedule(us(1), p.crash)
    e.run(until=us(5))
    assert p.crashed
    assert all(t <= us(1) for t in p.polls)


def test_deschedule_after_crash_is_inert():
    """A crashed process emits nothing: no stall, no count, no obs span."""
    e = Engine(seed=1)
    SpanRecorder(e)
    p = Recorder(e)
    p.start()
    inj = FailureInjector(e, [p])
    inj.crash_at(us(5), 0)
    inj.deschedule_at(us(10), 0, us(50))
    e.run(until=us(20))
    assert e.trace.get("process.crashes") == 1
    assert e.trace.get("process.deschedules") == 0
    assert p.cpu.busy_until <= us(5)
    assert [kind for kind, *_ in e.obs.process_events] == ["crash"]


def test_start_is_idempotent():
    e = Engine(seed=1)
    p = Recorder(e, config=ProcessConfig(poll_interval_ns=100, poll_jitter_ns=0))
    p.start()
    p.start()
    e.run(until=500)
    # One poll loop, not two: strictly increasing poll times.
    assert p.polls == sorted(set(p.polls))


def test_deschedule_delays_polls():
    e = Engine(seed=1)
    p = Recorder(e, config=ProcessConfig(poll_interval_ns=100, poll_jitter_ns=0))
    p.start()
    e.schedule(200, p.deschedule, us(10))
    e.run(until=us(15))
    # No polls land inside the descheduled window.
    window = [t for t in p.polls if 300 < t <= us(10)]
    assert window == []


def test_automatic_deschedules_fire():
    e = Engine(seed=2)
    cfg = ProcessConfig(poll_interval_ns=100, poll_jitter_ns=0,
                        deschedule_mean_interval_ns=us(5),
                        deschedule_duration_ns=us(2))
    p = Recorder(e, config=cfg)
    p.start()
    e.run(until=us(100))
    assert e.trace.get("process.deschedules") > 0


def test_wake_triggers_extra_poll():
    e = Engine(seed=1)
    p = Recorder(e, config=ProcessConfig(poll_interval_ns=us(50), poll_jitter_ns=0))
    p.start()
    e.schedule(100, p.wake, 0)
    e.run(until=us(10))
    assert any(t < us(1) for t in p.polls)


def test_slow_process_polls_slower():
    e = Engine(seed=1)
    fast = Recorder(e, node_id=0, config=ProcessConfig(poll_interval_ns=100, poll_jitter_ns=0))
    slow = Recorder(e, node_id=1, config=ProcessConfig(poll_interval_ns=100, poll_jitter_ns=0,
                                                       speed_factor=10.0))
    fast.start()
    slow.start()
    e.run(until=us(10))
    assert len(fast.polls) > 5 * len(slow.polls)
