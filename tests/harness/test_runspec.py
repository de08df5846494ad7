"""Tests for the unified RunSpec harness API."""

import pickle

import pytest

from repro.harness import RunSpec, WORKLOADS
from repro.obs.spans import SpanRecorder


def test_defaults_are_valid():
    spec = RunSpec()
    assert spec.system == "acuerdo"
    assert spec.workload in WORKLOADS


def test_unknown_system_rejected():
    with pytest.raises(ValueError, match="unknown system"):
        RunSpec(system="pbft")


def test_numeric_and_workload_validation():
    with pytest.raises(ValueError):
        RunSpec(workload="twitter")
    with pytest.raises(ValueError):
        RunSpec(n=0)
    with pytest.raises(ValueError):
        RunSpec(payload_bytes=0)
    with pytest.raises(ValueError):
        RunSpec(window=0)
    with pytest.raises(ValueError):
        RunSpec(duration_ms=0)
    with pytest.raises(ValueError):
        RunSpec(workers=0)


def test_frozen_and_hashable():
    spec = RunSpec()
    with pytest.raises(Exception):
        spec.window = 16
    assert spec == RunSpec()
    assert hash(spec) == hash(RunSpec())


def test_replace_revalidates():
    spec = RunSpec(window=8)
    assert spec.replace(window=32).window == 32
    assert spec.replace(window=32) != spec
    with pytest.raises(ValueError):
        spec.replace(window=0)


def test_round_trip_dict():
    spec = RunSpec(system="apus", payload_bytes=100, seed=9,
                   workload="openloop")
    data = spec.to_dict()
    assert data["system"] == "apus"
    assert RunSpec.from_dict(data) == spec
    with pytest.raises(ValueError, match="unknown RunSpec fields"):
        RunSpec.from_dict({**data, "frobnicate": 1})


def test_picklable_for_process_pools():
    spec = RunSpec(system="etcd", seed=4)
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_make_engine_capture_gate():
    plain = RunSpec(seed=7).make_engine()
    assert plain.obs is None
    traced = RunSpec(seed=7, capture_spans=True).make_engine()
    assert isinstance(traced.obs, SpanRecorder)
    assert traced.obs.tracer is traced.trace


def test_shard_fields_default_to_single_group():
    spec = RunSpec()
    assert (spec.shards, spec.users, spec.skew, spec.arrival_rate) == \
        (1, 0, 0.0, 0.0)


def test_shard_fields_validate():
    import pytest

    with pytest.raises(ValueError):
        RunSpec(shards=0)
    with pytest.raises(ValueError):
        RunSpec(users=-1)
    with pytest.raises(ValueError):
        RunSpec(skew=1.0)
    with pytest.raises(ValueError):
        RunSpec(arrival_rate=-5.0)


def test_shard_fields_round_trip():
    spec = RunSpec(shards=8, users=100_000, skew=0.99, arrival_rate=5e5)
    assert RunSpec.from_dict(spec.to_dict()) == spec
