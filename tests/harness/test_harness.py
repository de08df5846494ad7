"""Tests for the experiment harness (factory, fig8/fig9/table1 drivers)."""


import pytest

from repro.harness import RunSpec, SYSTEMS, build_from_spec, settle
from repro.harness.fig8 import knee, floor, point, sweep
from repro.harness.fig9 import grid_spec
from repro.harness.fig9 import point as fig9_point
from repro.harness.render import render_table, render_series
from repro.harness.table1 import election_spec, elections
from repro.sim import Engine


def test_factory_builds_every_system():
    for name in SYSTEMS:
        e = Engine(seed=1)
        s = build_from_spec(RunSpec(system=name, n=3), e)
        assert s.name in (name, name.replace("derecho-", "derecho-"))
        assert s.n == 3


def test_factory_rejects_unknown():
    with pytest.raises(ValueError):
        RunSpec(system="nope")


def test_settle_produces_leader_everywhere():
    for name in SYSTEMS:
        e = Engine(seed=2)
        s = build_from_spec(RunSpec(system=name, n=3), e)
        settle(s)
        assert s.leader_id() is not None, name


def test_fig8_point_measures():
    p = point(RunSpec(system="acuerdo", n=3, payload_bytes=10, window=2),
              min_completions=100)
    assert p.completed >= 100
    assert p.throughput_mb_s > 0
    assert 1 < p.mean_latency_us < 100


def test_fig8_sweep_stops_at_saturation():
    pts = sweep(RunSpec(system="acuerdo", n=3, payload_bytes=10),
                min_completions=120, max_window=256)
    assert 2 <= len(pts) <= 9
    assert pts[0].window == 1
    k = knee(pts)
    f = floor(pts)
    assert k.throughput_mb_s >= f.throughput_mb_s
    assert f.window == 1


def test_fig9_point_counts_ops():
    spec = grid_spec("acuerdo", 3, window=32).replace(duration_ms=200.0)
    p = fig9_point(spec, min_completions=150, record_count=500)
    assert p.ops_per_sec > 10_000  # RDMA KV should be deep into 10^4+


def test_fig9_point_honours_crash_schedule():
    """Fault schedules are never silently ignored: crashing a quorum
    half a millisecond in must stop the Fig. 9 table from committing,
    exactly as it would stop a Fig. 8 point."""
    spec = grid_spec("acuerdo", 3, window=16).replace(duration_ms=4.0)
    healthy = fig9_point(spec, min_completions=10**9, record_count=500)
    crashed = fig9_point(spec.replace(crashes=("1@0.5", "2@0.5")),
                         min_completions=10**9, record_count=500)
    assert healthy.completed > 500
    assert 0 < crashed.completed < healthy.completed / 4


def test_table1_returns_durations():
    durations = elections(election_spec(3, kills=1, kill_period_ms=2.0),
                          kills=1)
    assert len(durations) >= 1
    assert all(0 < d < 50 for d in durations)  # milliseconds


def test_render_table_formats():
    out = render_table("T", ["a", "bb"], [[1, 2.5], [10_000, float("nan")]])
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bb" in lines[2]
    assert "10,000" in out and "nan" in out


def test_render_series_formats():
    out = render_series("S", {"sys": [(1, 2.0), (2, 4.0)]}, "w", "lat")
    assert "sys" in out and "w -> lat" in out


def test_every_benchmark_module_imports():
    """``benchmarks/`` sits outside tier-1's testpaths, so a benchmark
    importing a name the harness no longer exports would only fail when
    someone regenerates that artifact; importing them here fails it
    with the rest of the suite."""
    import importlib
    import pathlib

    bench_dir = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
    modules = sorted(f.stem for f in bench_dir.glob("test_bench_*.py"))
    assert modules
    for name in modules:
        importlib.import_module(f"benchmarks.{name}")
