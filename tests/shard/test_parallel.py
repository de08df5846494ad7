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

from repro.harness.runspec import RunSpec
from repro.harness.shardsweep import shard_point, shard_sweep
from repro.shard.parallel import parallel_shard_point, slice_ranges

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
    par = parallel_shard_point(FARM.replace(workers=2))
    assert par.p50_latency_us == serial.p50_latency_us
    assert par.p99_latency_us == serial.p99_latency_us
    assert par.mean_latency_us == serial.mean_latency_us
    assert (par.submitted, par.committed, par.dropped) == \
        (serial.submitted, serial.committed, serial.dropped)


def test_workers_clamped_to_shards():
    par = parallel_shard_point(FARM.replace(workers=16))
    assert par.workers == FARM.shards


def test_slice_side_channel_shapes():
    collect = {}
    parallel_shard_point(FARM.replace(workers=2), collect=collect)
    assert collect["slices"] == [(0, 2), (2, 4)]
    assert len(collect["slice_seconds"]) == 2
    assert all(s > 0 for s in collect["slice_seconds"])
    assert set(collect["shard_fingerprints"]) == {0, 1, 2, 3}
    assert collect["foreign"] > 0      # each slice skipped foreign keys


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
