"""Space-parallel shard farms: slice/serial equivalence and routing.

The contract under test (DESIGN.md §13): running a farm's groups as
contiguous slices on separate worker engines produces bit-identical
per-shard results to the single-engine farm — same per-group
fingerprints (substrate counters, submit/commit/drop, exact latency
sequences, leader, violations), same latency percentiles, same
violation counts — at every slice width.  Only the host-cost field
``events_executed`` (which sums over worker engines) and the
self-describing ``workers`` field may differ.
"""

import dataclasses

import pytest

from repro.core.node import Role
from repro.harness.runspec import RunSpec
from repro.harness.shardsweep import shard_point, shard_sweep
from repro.shard.parallel import slice_ranges

#: Small but non-trivial: 4 Zipfian-skewed groups, ~1000 arrivals.
FARM = RunSpec(system="acuerdo", n=3, workload="openloop", duration_ms=5.0,
               seed=11, shards=4, users=2000, skew=0.99,
               arrival_rate=200_000.0)

#: ShardPoint fields allowed to differ between serial and sliced runs.
HOST_COST = {"events_executed", "workers"}


def behaviour(point) -> dict:
    return {k: v for k, v in dataclasses.asdict(point).items()
            if k not in HOST_COST}


# ------------------------------------------------------------ slice_ranges


def test_slice_ranges_even_split():
    assert slice_ranges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_slice_ranges_uneven_split_front_loads_remainder():
    assert slice_ranges(5, 2) == [(0, 3), (3, 5)]
    assert slice_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]


def test_slice_ranges_more_workers_than_shards():
    assert slice_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]


def test_slice_ranges_covers_exactly():
    for shards in (1, 2, 5, 8, 13):
        for workers in (1, 2, 3, 4, 16):
            ranges = slice_ranges(shards, workers)
            assert ranges[0][0] == 0 and ranges[-1][1] == shards
            assert all(lo < hi for lo, hi in ranges)
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


def test_slice_ranges_rejects_nonpositive():
    with pytest.raises(ValueError):
        slice_ranges(0, 2)
    with pytest.raises(ValueError):
        slice_ranges(4, 0)


# ------------------------------------------------- parallel == serial


def test_parallel_matches_serial_across_modes():
    """workers in {1, 2, 4}: identical per-shard fingerprints, latency
    percentiles, and violation counts.  The unparked reference is not
    a second axis here: the parked serial farm equals the unparked
    serial farm by ``test_park_oracle[farm8_zipf_open-5-0.3]``, and the
    sliced farm equals the serial one by this test."""
    serial_collect = {}
    serial = shard_point(FARM, collect=serial_collect)
    assert serial.workers == 1
    for workers in (2, 4):
        collect = {}
        par = shard_point(FARM.replace(workers=workers), collect=collect)
        assert par.workers == workers
        assert collect["shard_fingerprints"] == \
            serial_collect["shard_fingerprints"]
        assert behaviour(par) == behaviour(serial)
        assert par.violations == serial.violations == 0


def test_parallel_monitored_matches_serial():
    spec = FARM.replace(check_invariants=True)
    serial_collect, par_collect = {}, {}
    serial = shard_point(spec, collect=serial_collect)
    par = shard_point(spec.replace(workers=4), collect=par_collect)
    assert par_collect["shard_fingerprints"] == \
        serial_collect["shard_fingerprints"]
    assert behaviour(par) == behaviour(serial)
    assert par.violations == 0 and par_collect["violations"] == []


def test_parallel_point_latency_percentiles_exact():
    serial = shard_point(FARM)
    par = shard_point(FARM.replace(workers=2))
    assert par.p50_latency_us == serial.p50_latency_us
    assert par.p99_latency_us == serial.p99_latency_us
    assert par.mean_latency_us == serial.mean_latency_us
    assert (par.submitted, par.committed, par.dropped) == \
        (serial.submitted, serial.committed, serial.dropped)


def test_workers_clamped_to_shards():
    par = shard_point(FARM.replace(workers=16))
    assert par.workers == FARM.shards


def test_slice_side_channel_shapes():
    collect = {}
    shard_point(FARM.replace(workers=2), collect=collect)
    assert collect["slices"] == [(0, 2), (2, 4)]
    assert len(collect["slice_seconds"]) == 2
    assert all(s > 0 for s in collect["slice_seconds"])
    assert set(collect["shard_fingerprints"]) == {0, 1, 2, 3}
    assert collect["foreign"] > 0      # each slice skipped foreign keys


def test_one_slice_farm_reproduces_recorded_reference():
    """``workers=1`` is the one-slice case of the sliced driver, and it
    still is the farm ``BENCH_host_perf.json`` recorded from one serial
    engine: same events, same commits, same simulated point."""
    import json
    import pathlib

    from repro.harness.hostperf import SHARD_POINT

    bench = pathlib.Path(__file__).resolve().parents[2] / "BENCH_host_perf.json"
    recorded = json.loads(bench.read_text())["shard_farm"]["point"]
    collect = {}
    point = shard_point(SHARD_POINT, collect=collect)
    assert collect["slices"] == [(0, SHARD_POINT.shards)]
    assert collect["foreign"] == 0
    assert point.events_executed == 148_966
    assert point.committed == 10_038
    assert point.workers == 1
    assert dataclasses.asdict(point) == recorded


def test_clock_advancing_settle_runs_as_one_slice_only():
    """ZooKeeper elects while settling, so its clock is not 0 when the
    workload starts: fine for one engine holding every group, but two
    slices would each start at their own instant — that, and only
    that, raises."""
    spec = RunSpec(system="zookeeper", n=3, workload="openloop",
                   duration_ms=3.0, seed=5, shards=2, users=500, skew=0.0,
                   arrival_rate=20_000.0)
    point = shard_point(spec)
    assert point.workers == 1 and point.committed > 0
    with pytest.raises(RuntimeError, match="'zookeeper' advances the engine "
                                           "clock while settling"):
        shard_point(spec.replace(workers=2))


# ------------------------------------------------------- crash routing


def test_crash_lands_on_owning_worker():
    """A (group, node) kill must land on the right worker's slice: the
    crashed group's fingerprint changes, every other group's does not,
    and the sliced run still matches the serial run bit for bit."""
    crashed = FARM.replace(crashes=("2:1@1",))
    healthy_c, serial_c, par_c = {}, {}, {}
    shard_point(FARM, collect=healthy_c)
    serial = shard_point(crashed, collect=serial_c)
    par = shard_point(crashed.replace(workers=4), collect=par_c)
    assert par_c["shard_fingerprints"] == serial_c["shard_fingerprints"]
    assert behaviour(par) == behaviour(serial)
    assert serial_c["shard_fingerprints"][2] != \
        healthy_c["shard_fingerprints"][2]
    for g in (0, 1, 3):
        assert serial_c["shard_fingerprints"][g] == \
            healthy_c["shard_fingerprints"][g]


def test_partition_routed_to_owning_group():
    cut = FARM.replace(partitions=("0:0,0:1|0:2@1-3",))
    healthy_c, serial_c, par_c = {}, {}, {}
    shard_point(FARM, collect=healthy_c)
    serial = shard_point(cut, collect=serial_c)
    par = shard_point(cut.replace(workers=2), collect=par_c)
    assert par_c["shard_fingerprints"] == serial_c["shard_fingerprints"]
    assert behaviour(par) == behaviour(serial)
    assert serial_c["shard_fingerprints"][0] != \
        healthy_c["shard_fingerprints"][0]
    for g in (1, 2, 3):
        assert serial_c["shard_fingerprints"][g] == \
            healthy_c["shard_fingerprints"][g]


def test_missed_epoch_diff_does_not_assert_the_farm_down():
    """Isolate group 1's leader for a millisecond: the others elect a
    new leader whose epoch-opening diff to node 0 is dropped at the cut,
    so after the heal node 0 sees count > 0 messages of an epoch it
    never joined.  It must drop them and vote (DESIGN.md §5 deviation
    8) so stranded-voter recovery re-admits it — not assert."""
    spec = RunSpec(system="acuerdo", n=3, seed=9, payload_bytes=64,
                   workload="openloop", duration_ms=5.0, shards=2,
                   users=100_000, skew=0.99, arrival_rate=500_000.0,
                   partitions=("1:0|1:1,1:2@1.0-2.0",),
                   check_invariants=True)
    assert shard_point(spec).violations == 0

    # The same run again, by hand, to look inside group 1.
    from repro.harness.shardsweep import farm_group_config
    from repro.shard.parallel import drive_farm, prepare_farm

    dep, client = prepare_farm(spec, 0, 2, farm_group_config(spec))
    drive_farm(dep, client, spec.duration_ms)
    assert dep.engine.monitors.finish() == []
    counters = dep.engine.trace.counters
    assert counters["acuerdo.missed_diff_drop"] >= 1
    assert counters["acuerdo.stranded_voter_recovery"] >= 1
    group = dep.groups[1]
    leader = group.leader_id()
    assert leader in (1, 2)
    isolated = group.nodes[0]
    assert isolated.role is Role.FOLLOWER
    assert isolated.E_cur == group.nodes[leader].E_cur
    assert dep.committed[1] > 0.9 * dep.submitted[1] > 1000


# -------------------------------------------------- schedule validation


def test_bare_crash_address_rejected_on_farm():
    with pytest.raises(ValueError, match="ambiguous"):
        shard_point(FARM.replace(crashes=("1@1",)))


def test_out_of_range_crash_group_names_valid_range():
    with pytest.raises(ValueError, match=r"0\.\.3"):
        shard_point(FARM.replace(crashes=("9:0@1",)))


def test_byz_rejected_on_farm():
    with pytest.raises(ValueError, match="not ?supported|not supported"):
        shard_point(FARM.replace(byz=("equivocate:0:1@1",)))


def test_cross_group_partition_rejected():
    with pytest.raises(ValueError, match="spans groups"):
        shard_point(FARM.replace(partitions=("0:0,1:1|0:2@1",)))


def test_bare_partition_members_rejected_on_farm():
    with pytest.raises(ValueError, match="bare node ids"):
        shard_point(FARM.replace(partitions=("0,1|2@1",)))


def test_cli_rejects_bad_group_at_parse_time(capsys):
    from repro.__main__ import main

    rc = main(["--workers", "1", "shard", "--shards", "4", "--skews", "0.0",
               "--users", "500", "--rate", "100000", "--duration-ms", "1.0",
               "--crash", "7:0@1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "0..3" in err and "group 7" in err


# ------------------------------------------------------------ sweeps


def test_shard_sweep_threads_workers_and_heartbeat():
    spec = FARM.replace(workers=2)
    pts = shard_sweep(spec, [2, 4], [0.0], heartbeat_us=40)
    assert [p.shards for p in pts] == [2, 4]
    assert all(p.workers == 2 for p in pts)
    serial_pts = shard_sweep(FARM, [2, 4], [0.0], heartbeat_us=40)
    assert [behaviour(p) for p in pts] == [behaviour(p) for p in serial_pts]
