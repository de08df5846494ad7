"""run_points: parallel sweeps must be indistinguishable from sequential.

Every driver (Fig. 8/9, Table 1, benchmarks) now fans its points through
:func:`repro.harness.parallel.run_points`; these tests pin the contract
that makes that safe: submission-ordered collection, bit-identical
results and trace fingerprints at any worker count, and original
exceptions surfacing from crashed workers.

Worker functions live at module level so they pickle into pool workers.
"""

from __future__ import annotations

import pytest

from repro.harness.factory import build_from_spec, settle
from repro.harness.fig8 import point
from repro.harness.parallel import default_workers, run_points, WORKERS_ENV
from repro.harness.runspec import RunSpec
from repro.sim.engine import Engine, ms, us


def _fingerprint_point(name: str, seed: int, messages: int):
    """A small deterministic workload returning the full trace
    fingerprint (counters + sample digests + event count)."""
    engine = Engine(seed=seed)
    system = build_from_spec(RunSpec(system=name, n=3), engine)
    settle(system)
    state = {"submitted": 0}

    def pump():
        if state["submitted"] < messages:
            if system.submit(("m", state["submitted"]), 64):
                state["submitted"] += 1
            engine.schedule(us(20), pump)

    engine.schedule(0, pump)
    engine.run(until=engine.now + ms(10))
    delivered = tuple(sorted(system.deliveries.counts.items()))
    return (engine.trace.fingerprint(), delivered)


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    if x == 2:
        raise ValueError(f"point {x} exploded")
    return x


POINTS = [("acuerdo", 11, 8), ("acuerdo", 12, 8), ("zookeeper", 11, 6)]


def test_results_in_submission_order():
    assert run_points(_square, [(3,), (1,), (2,)], workers=2) == [9, 1, 4]


def test_bare_points_are_wrapped():
    assert run_points(_square, [3, 1, 2], workers=1) == [9, 1, 4]


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_matches_sequential_fingerprints(workers):
    seq = run_points(_fingerprint_point, POINTS, workers=1)
    par = run_points(_fingerprint_point, POINTS, workers=workers)
    assert par == seq


def test_parallel_matches_sequential_fig8_point():
    pts = [(RunSpec(system="acuerdo", n=3, payload_bytes=100, window=w,
                    seed=5), 60) for w in (1, 2, 4)]
    seq = run_points(point, pts, workers=1)
    par = run_points(point, pts, workers=2)
    assert par == seq


@pytest.mark.parametrize("workers", [1, 3])
def test_crashing_point_surfaces_original_exception(workers):
    with pytest.raises(ValueError, match="point 2 exploded"):
        run_points(_boom, [(1,), (2,), (3,), (4,)], workers=workers)


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert default_workers() == 3
    monkeypatch.delenv(WORKERS_ENV)
    assert default_workers() >= 1


def test_default_workers_rejects_non_integer_by_name(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "four")
    with pytest.raises(ValueError, match=r"REPRO_WORKERS='four'"):
        default_workers()
    for sequential in ("0", "1"):
        monkeypatch.setenv(WORKERS_ENV, sequential)
        assert default_workers() == 1
