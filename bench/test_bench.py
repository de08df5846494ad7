"""Tests of the benchmark itself.  Run with ``python -m pytest bench/``
(outside tier-1 ``testpaths``); every workload runs at one-tenth
duration, and the command-line test runs one of them at full length."""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = run.load_benchmark()
NAMES = [w["name"] for w in BENCH["workloads"]]
SCALE = 0.1
FAILOVER = "acuerdo_failover_n5_open"
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(seed: int, trace: bool, out_dir: str) -> dict:
    passes = run.run_passes(NAMES, seed, repeats=1, trace=trace, out_dir=out_dir,
                            scale=SCALE)
    return {n: run.aggregate(passes[n]) for n in NAMES}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench_out"))


@pytest.fixture(scope="module")
def traced(out_dir):
    return _run(3, True, out_dir)


@pytest.fixture(scope="module")
def untraced(out_dir):
    return _run(3, False, out_dir)


def test_every_workload_passes_its_checks(traced):
    for name, agg in traced.items():
        checks = dict(agg["checks"])
        failed_share = agg["failed"] / agg["attempted"]
        if name == FAILOVER:
            # An election takes the same simulated time at any run
            # length, so at one-tenth duration the two outages are ten
            # times the share the full-length gate allows.
            assert not checks.pop("failed_share_between_0_and_0.05")
            assert 0 < failed_share < 0.5
        else:
            assert failed_share == 0
        assert all(checks.values()), (name, checks)
        assert agg["passes"] == {"untraced": 1, "traced": 1}


def test_names_match_benchmark_json(traced):
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    layer = [m["name"] for m in BENCH["per_layer"]]
    for name in NAMES + e2e + layer:
        assert NAME_RE.fullmatch(name), name
    assert len(set(NAMES + e2e + layer)) == len(NAMES + e2e + layer)
    assert NAMES == list(workloads.WORKLOADS)
    for agg in traced.values():
        assert list(agg["end_to_end"]) == e2e
        assert sorted(agg["per_layer"]) == sorted(layer)
        line = json.loads(run.result_line(agg, BENCH["per_layer"]))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert sorted(line["metrics"]) == sorted(layer)


def test_sim_clock_is_exact_per_seed_and_moves_with_it(traced, untraced, out_dir):
    other_seed = _run(4, False, out_dir)
    for name in NAMES:
        a, b, c = traced[name], untraced[name], other_seed[name]
        assert a["sim_fingerprint"] == b["sim_fingerprint"]
        assert a["sim_fingerprint"] != c["sim_fingerprint"]
        for m in run.SIM_METRICS:
            assert a["end_to_end"][m]["value"] == b["end_to_end"][m]["value"]
        assert any(a["end_to_end"][m]["value"] != c["end_to_end"][m]["value"]
                   for m in run.SIM_METRICS)


def test_layer_self_times_sum_to_root_and_bypasses_bypass(traced):
    for name, agg in traced.items():
        assert agg["checks"]["layer_self_times_sum_to_root"]
        self_us = {k: agg["per_layer"][f"{k}.self_us_per_commit"]["value"]
                   for k in run.LAYERS}
        total = sum(self_us.values())
        if name == "zab_tcp_1k_w32":
            idle, busy = ("rdma", "core"), ("net.tcp", "protocols")
        else:
            idle, busy = ("net.tcp", "protocols"), ("rdma", "core")
        for k in idle:
            assert self_us[k] < 0.01 * total, (name, k)
        for k in busy:
            assert self_us[k] > 0.05 * total, (name, k)
        assert (self_us["shard"] > 0) == (name == "farm8_zipf_open")
        assert (self_us["monitors"] > 0) == (name == "acuerdo_failover_n5_open")


def test_trace_file_has_spans_with_parents(traced, out_dir):
    with open(os.path.join(out_dir, "acuerdo_sat_1k_w32.trace.json")) as f:
        doc = json.load(f)
    spans = doc["spans"]
    assert 1000 < len(spans) <= 100_000
    assert spans[0][:2] == ["other", "bench.timed_region"] and spans[0][4] == -1
    for i, (layer, _fn, start, end, parent, _rid) in enumerate(spans[1:], 1):
        assert 0 <= parent < i and start <= end
        assert spans[parent][2] <= start          # a child starts inside its parent
        assert layer != spans[parent][0]          # spans sit on layer boundaries
    assert any(s[5] is not None for s in spans)


def test_compare_flags_a_regression_and_passes_identity(untraced):
    doc = {"manifest": {"seed": 3}, "workloads": untraced}
    rows = compare.compare(doc, doc, BENCH)
    # "unresolved": the four set-up times of a run can be further apart
    # than the bound on a noisy host; a file is never worse than itself.
    assert rows and all(r[5] in ("ok", "same", "unresolved") for r in rows)
    bound = next(m["bound"] for m in BENCH["end_to_end"]
                 if m["name"] == "host_us_per_commit")

    def verdicts(factor: float) -> list[tuple]:
        slow = copy.deepcopy(doc)
        m = slow["workloads"]["zab_tcp_1k_w32"]["end_to_end"]["host_us_per_commit"]
        for k in ("value", "q1", "q3"):
            m[k] *= factor
        return [(r[0], r[1]) for r in compare.compare(doc, slow, BENCH)
                if r[5] == "worse"]

    assert verdicts(1 + bound + 0.05) == [("zab_tcp_1k_w32", "host_us_per_commit")]
    # ISSUE.md asks that a 20 % regression be flagged.  It is only when
    # the bound is under 20 %, which this host's noise does not allow
    # (README.md, "Where this differs from ISSUE.md").
    assert bool(verdicts(1.20)) == (bound < 0.20)


def test_seconds_become_a_fixed_number_of_repeats():
    assert run.repeats_for(BENCH["run_seconds"], trace=False) == 3
    assert run.repeats_for(BENCH["run_seconds"], trace=True) == 1
    assert run.repeats_for(0, trace=False) == 1


def test_cli_contract(tmp_path):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--out", str(tmp_path)]
    ok = subprocess.run(cmd + ["--workload", "zab_tcp_1k_w32", "--seed", "5",
                               "--repeats", "1", "--trace", "0"],
                        capture_output=True, text=True)
    assert ok.returncode == 0, ok.stderr
    line = json.loads(ok.stdout.splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(v["value"] != 0 for v in line["metrics"].values())
    docs = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
    with open(os.path.join(tmp_path, docs[0])) as f:
        manifest = json.load(f)["manifest"]
    assert manifest["seed"] == 5 and manifest["repeats"] == 1
    assert manifest["env"]["REPRO_PARK"] is None

    bad = subprocess.run(cmd + ["--workload", "nope"], capture_output=True, text=True)
    assert bad.returncode != 0 and "acuerdo_sat_1k_w32" in bad.stderr
    gated = subprocess.run(cmd + ["--workload", NAMES[0]], capture_output=True,
                           text=True, env={**os.environ, "REPRO_PARK": "0"})
    assert gated.returncode != 0 and "REPRO_PARK" in gated.stderr
