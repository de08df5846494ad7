"""Poll elision must be invisible: parked runs are bit-identical.

The doorbell/parking machinery fast-forwards idle poll loops, but every
virtual poll tick draws the same jitter from the same RNG stream as the
real schedule would, so the observable run — trace fingerprint, delivery
order and timing, tracer summary — must be *identical* to the unparked
reference (``tests.park_reference``).  Executed events, the host-cost
proxy, are the only thing allowed to change, and only downward.
"""

from __future__ import annotations

import functools

import pytest

from repro.harness.factory import build_from_spec, settle
from repro.harness.runspec import RunSpec
from repro.sim.engine import Engine, ms, us
from tests.park_reference import park_mode
from tests.substrate.test_golden_fingerprints import GOLDEN_FINGERPRINTS

SYSTEMS = sorted(GOLDEN_FINGERPRINTS)


def run_observed(name, n=3, seed=7, messages=24):
    """The golden-fingerprint workload, with delivery latencies and the
    tracer summary captured alongside the fingerprint."""
    engine = Engine(seed=seed)
    system = build_from_spec(RunSpec(system=name, n=n), engine)
    settle(system)
    state = {"submitted": 0}
    submit_ns: dict = {}
    deliveries: list = []

    system.delivery_listeners.append(
        lambda node_id, payload: deliveries.append((node_id, payload, engine.now)))

    def pump():
        if state["submitted"] < messages:
            payload = ("m", state["submitted"])
            if system.submit(payload, 64):
                submit_ns[payload] = engine.now
                state["submitted"] += 1
            engine.schedule(us(20), pump)

    engine.schedule(0, pump)
    engine.run(until=engine.now + ms(30))
    latencies = tuple((node, payload, t - submit_ns[payload])
                      for node, payload, t in deliveries if payload in submit_ns)
    observed = (
        engine.trace.fingerprint(),
        tuple(sorted(system.deliveries.counts.items())),
        system.leader_id(),
        latencies,
        tuple(sorted(engine.trace.summary().items())),
    )
    return observed, engine.events_executed


@functools.cache
def run_in_mode(parked, name):
    """Each (mode, system) run happens once per session; both tests
    below read it."""
    with park_mode(parked):
        return run_observed(name)


@pytest.mark.parametrize("name", SYSTEMS)
def test_parked_run_is_bit_identical(name):
    parked, parked_events = run_in_mode(True, name)
    unparked, unparked_events = run_in_mode(False, name)
    assert parked == unparked
    # Parking may only remove events, never add or reorder them.
    assert parked_events <= unparked_events


def test_parking_elides_events_overall():
    """Across the whole suite the elision must actually bite (a single
    protocol may be too busy to park much, but not all of them)."""
    totals = {parked: sum(run_in_mode(parked, name)[1] for name in SYSTEMS)
              for parked in (True, False)}
    assert totals[True] < totals[False]
