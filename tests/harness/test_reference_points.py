"""Reference points: one mid-size Fig. 8 point per substrate backend.

Each point is a pure function of its spec, so its simulated result and
the number of events the engine executes to produce it are fixed on
every host.  The recorded :class:`~repro.harness.fig8.Fig8Point` dicts
catch a change that moves simulated behaviour; the exact event counts
catch a change that keeps the behaviour but adds or removes engine
work (a lost poll elision, a heartbeat that stops riding its train).
How fast the host runs these points is measured by ``bench/``, not
here.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness import fig8
from repro.harness.runspec import RunSpec

#: backend -> (spec, min_completions, events executed, recorded point)
REFERENCE_POINTS = {
    "rdma": (
        RunSpec(system="acuerdo", n=3, payload_bytes=1000, window=32,
                seed=3, duration_ms=2000.0),
        3000,
        51_567,
        {"system": "acuerdo", "n": 3, "message_size": 1000, "window": 32,
         "throughput_mb_s": 867.1666666666666,
         "throughput_msgs_s": 867166.6666666666,
         "mean_latency_us": 36.79833165146517,
         "p99_latency_us": 43.207,
         "completed": 5203,
         "wire_bytes": 12537640,
         "wire_msgs": 31604},
    ),
    "tcp": (
        RunSpec(system="zookeeper", n=3, payload_bytes=1000, window=32,
                seed=3, duration_ms=4000.0),
        2000,
        50_411,
        {"system": "zookeeper", "n": 3, "message_size": 1000, "window": 32,
         "throughput_mb_s": 25.24468085106383,
         "throughput_msgs_s": 25244.68085106383,
         "mean_latency_us": 1265.6275088247955,
         "p99_latency_us": 1512.85,
         "completed": 2373,
         "wire_bytes": 6766326,
         "wire_msgs": 15823},
    ),
}


@pytest.mark.parametrize("backend", sorted(REFERENCE_POINTS))
def test_reference_point_reproduces_recorded_result(backend, monkeypatch):
    spec, min_completions, events, recorded = REFERENCE_POINTS[backend]
    real_prepare, built = fig8.prepare, []

    def prepare(*args, **kwargs):
        system = real_prepare(*args, **kwargs)
        built.append(system)
        return system

    monkeypatch.setattr(fig8, "prepare", prepare)
    point = fig8.point(spec, min_completions=min_completions)
    assert dataclasses.asdict(point) == recorded
    [system] = built
    assert system.engine.events_executed == events
