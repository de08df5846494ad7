"""Tests for the closed-loop and open-loop clients."""

from repro.core import AcuerdoCluster
from repro.sim import Engine, ms, us
from repro.workloads.closedloop import ClosedLoopClient
from repro.workloads.openloop import OpenLoopClient


def _system(seed=1, n=3):
    e = Engine(seed=seed)
    c = AcuerdoCluster(e, n)
    c.preseed_leader(0)
    c.start()
    return e, c


def test_closed_loop_keeps_window_outstanding():
    e, c = _system()
    client = ClosedLoopClient(c, window=4, message_size=10)
    client.start()
    e.run(until=ms(2))
    client.stop()
    # outstanding = sent - completed never exceeds the window
    assert 0 <= client.sent - client.completed <= 4


def test_closed_loop_latency_includes_client_hops():
    e, c = _system()
    client = ClosedLoopClient(c, window=1, message_size=10)
    res = client.run_for(ms(2))
    assert res.completed > 50
    # Client-observed latency must exceed 2x the one-way hop.
    assert res.mean_latency_us * 1000 > 2 * c.client_hop_ns


def test_closed_loop_throughput_scales_with_window_until_knee():
    t = {}
    for w in (1, 4):
        e, c = _system()
        client = ClosedLoopClient(c, window=w, message_size=10)
        t[w] = client.run_for(ms(3)).throughput_mb_per_sec
    assert t[4] > 2.5 * t[1]


def test_closed_loop_warmup_excluded():
    e, c = _system()
    client = ClosedLoopClient(c, window=2, message_size=10, warmup=10)
    res = client.run_for(ms(2))
    assert res.completed == len(res.latencies_ns) + 10


def test_closed_loop_result_stats():
    e, c = _system()
    client = ClosedLoopClient(c, window=2, message_size=100)
    res = client.run_for(ms(2))
    assert res.message_size == 100
    assert res.throughput_mb_per_sec > 0
    assert res.percentile_latency_us(99) >= res.percentile_latency_us(50)


def test_closed_loop_retries_without_leader():
    e = Engine(seed=1)
    c = AcuerdoCluster(e, 3)
    c.start()  # cold: election in progress at client start
    client = ClosedLoopClient(c, window=2, message_size=10)
    client.start()
    e.run(until=ms(3))
    client.stop()
    assert client.completed > 0  # retried through the election


def test_open_loop_fixed_rate():
    e, c = _system()
    client = OpenLoopClient(c, period_ns=us(10), message_size=10)
    client.start()
    e.run(until=ms(1))
    client.stop()
    assert 90 <= client.sent <= 110
    assert client.committed > 80


def test_open_loop_measures_commit_gap_across_failover():
    e, c = _system(n=5, seed=3)
    client = OpenLoopClient(c, period_ns=us(10), message_size=10)
    client.start()
    e.run(until=ms(1))
    baseline_gap = client.longest_commit_gap()
    c.crash(c.leader_id())
    e.run(until=ms(5))
    client.stop()
    gap = client.longest_commit_gap()
    # The fail-over window dominates the largest observed gap.
    assert gap > 3 * baseline_gap
    assert client.dropped >= 0


def test_open_loop_default_touches_no_rng():
    """The fixed/unkeyed default must not create an RNG stream — that is
    what keeps historical runs bit-identical to pre-mode clients."""
    e, c = _system()
    client = OpenLoopClient(c, period_ns=us(10), message_size=10)
    assert client._rng is None
    client.start()
    e.run(until=ms(1))
    assert client.committed > 0


def test_open_loop_poisson_is_seeded_and_deterministic():
    def run():
        e, c = _system(seed=9)
        client = OpenLoopClient(c, period_ns=us(10), message_size=10,
                                arrival="poisson")
        client.start()
        e.run(until=ms(2))
        return client.sent, client.committed, tuple(client.commit_times)

    assert run() == run()


def test_open_loop_poisson_varies_interarrivals():
    e, c = _system(seed=3)
    client = OpenLoopClient(c, period_ns=us(10), message_size=10,
                            arrival="poisson")
    client.start()
    e.run(until=ms(2))
    gaps = {b - a for a, b in zip(client.commit_times, client.commit_times[1:])}
    assert len(gaps) > 1   # fixed mode would commit on a strict cadence


def test_open_loop_zipfian_keys_are_skewed_and_in_range():
    e, c = _system(seed=5)
    keys = []
    client = OpenLoopClient(c, period_ns=us(5), message_size=10,
                            key_dist="zipfian", key_space=100, skew=0.99,
                            payload_fn=lambda i, k: keys.append(k) or ("m", i, k))
    client.start()
    e.run(until=ms(3))
    assert keys and all(0 <= k < 100 for k in keys)
    top = max(keys.count(k) for k in set(keys))
    assert top > len(keys) / 20   # hottest key far above uniform 1/100


def test_open_loop_uniform_keys_cover_the_space():
    e, c = _system(seed=5)
    client = OpenLoopClient(c, period_ns=us(5), message_size=10,
                            key_dist="uniform", key_space=4)
    client.start()
    e.run(until=ms(2))
    # keyed default payloads are ("ol", i, key)
    assert client.sent > 20


def test_open_loop_records_latencies():
    e, c = _system()
    client = OpenLoopClient(c, period_ns=us(10), message_size=10)
    client.start()
    e.run(until=ms(1))
    assert len(client.latencies_ns) == client.committed
    assert all(lat > 0 for lat in client.latencies_ns)


def test_open_loop_rejects_unknown_modes():
    import pytest

    e, c = _system()
    with pytest.raises(ValueError):
        OpenLoopClient(c, period_ns=us(10), message_size=10, arrival="burst")
    with pytest.raises(ValueError):
        OpenLoopClient(c, period_ns=us(10), message_size=10, key_dist="pareto")


class _RecordingSystem:
    """Accepts every submission and schedules nothing, so the only
    events on the engine are the client's own ticks."""

    def __init__(self, engine):
        self.engine = engine
        self.submitted = []

    def submit(self, payload, size_bytes, on_commit=None):
        self.submitted.append((self.engine.now, payload))
        return True


def _ticking_client():
    """A fixed-rate client 35 us in: ticks ran at 0 (inline in start),
    10, 20 and 30 us; the 40 us tick is scheduled."""
    e = Engine()
    system = _RecordingSystem(e)
    client = OpenLoopClient(system, period_ns=us(10), message_size=10)
    client.start()
    e.run(until=us(35))
    assert client.sent == 4 and e.events_executed == 3
    return e, system, client


def test_open_loop_stop_lets_one_noop_tick_fire_then_the_schedule_dies():
    e, system, client = _ticking_client()
    client.stop()
    e.run()
    assert e.events_executed == 4 and e.now == us(40)   # exactly one more tick
    assert client.sent == 4 and len(system.submitted) == 4   # a no-op
    assert e.idle()


def test_open_loop_start_twice_runs_one_tick_loop():
    e, system, client = _ticking_client()
    client.start()
    assert client.sent == 4 and e.live_pending == 1
    e.run(until=us(65))
    assert [t for t, _ in system.submitted] == [us(10 * k) for k in range(7)]


def test_open_loop_restart_before_the_noop_tick_resumes_the_same_loop():
    e, system, client = _ticking_client()
    client.stop()
    client.start()      # the 40 us tick is still scheduled: it carries on
    assert client.sent == 4 and e.live_pending == 1
    e.run(until=us(65))
    assert [t for t, _ in system.submitted] == [us(10 * k) for k in range(7)]
    # Once the no-op tick has fired the loop is dead and start() restarts it.
    client.stop()
    e.run()
    assert e.idle() and client.sent == 7
    client.start()
    assert client.sent == 8 and e.live_pending == 1


def test_closed_loop_start_twice_opens_one_window():
    e, c = _system()
    client = ClosedLoopClient(c, window=4, message_size=10)
    client.start()
    client.start()
    assert client.sent == 4
    e.run(until=ms(2))
    assert 0 <= client.sent - client.completed <= 4


def test_open_loop_custom_payload_fn_keeps_per_tick_path():
    """A stateful payload_fn is called at its tick's time, once per
    submission."""
    e, c = _system()
    calls = []
    client = OpenLoopClient(c, period_ns=us(10), message_size=10,
                            payload_fn=lambda i: calls.append(e.now) or ("m", i))
    client.start()
    e.run(until=ms(1))
    client.stop()
    # One call per submission, at strictly increasing tick times.
    assert len(calls) == client.sent
    assert all(a < b for a, b in zip(calls, calls[1:]))
