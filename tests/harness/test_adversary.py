"""The adversarial scenario suite: classification, matrix, CLI."""

from __future__ import annotations

import json

import pytest

from repro.harness.adversary import (
    ADVERSARY_SYSTEMS,
    AttackOutcome,
    attack_matrix,
    classify,
    render_matrix,
    run_attack,
)
from repro.harness import RunSpec
from repro.harness.factory import build_from_spec, settle
from repro.monitors.registry import MonitorRegistry
from repro.sim.byzantine import BYZ_MODES, ByzantineInjector
from repro.sim.engine import Engine, ms, us
from repro.sim.failure import FailureInjector


class _FakeInjector:
    def __init__(self, attempts=0, landed=0, blocked=0):
        self.attempts = {"equivocate": attempts}
        self.landed = {"equivocate": landed}
        self.blocked = {"equivocate": blocked}


# ----------------------------------------------------------- classification


def test_classify_no_applicable_surface_is_na():
    assert classify(_FakeInjector(), "equivocate", 0) == "n/a"


def test_classify_violations_win():
    byz = _FakeInjector(attempts=3, landed=3)
    assert classify(byz, "equivocate", 2) == "detected"


def test_classify_all_blocked_is_neutralized():
    byz = _FakeInjector(attempts=3, blocked=3)
    assert classify(byz, "equivocate", 0) == "neutralized"


def test_classify_landed_but_clean_is_absorbed():
    byz = _FakeInjector(attempts=3, landed=3)
    assert classify(byz, "equivocate", 0) == "absorbed"


def test_classify_attempted_but_inert_is_no_effect():
    assert classify(_FakeInjector(attempts=3), "equivocate", 0) == "no-effect"


# ---------------------------------------------------------------- run_attack


def test_run_attack_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown attack mode"):
        run_attack("acuerdo", "lie")


def test_run_attack_no_protection_resolves_the_ablation_row():
    out = run_attack("acuerdo", "equivocate", n=4, seed=7, protection=False)
    assert out.system == "acuerdo-unprotected"
    assert out.outcome == "detected"


@pytest.mark.parametrize("mode, expect", [
    ("corrupt_ring", ("detected", 90, 90, 0, 210,
                      {"commit_quorum_accept": 120,
                       "log_prefix_agreement": 90}, 80)),
    ("dup_ring", ("detected", 30, 30, 0, 51,
                  {"commit_quorum_accept": 7,
                   "log_prefix_agreement": 44}, 80)),
])
def test_derecho_attacked_two_write_ring_is_pinned(mode, expect):
    # Derecho's ring is the only one posting a data write and a counter
    # write per message; the attacked fan-out must keep both per receiver.
    out = run_attack("derecho-leader", mode)
    assert (out.outcome, out.attempts, out.landed, out.blocked,
            out.violations, dict(out.by_monitor), out.completed) == expect


@pytest.mark.parametrize("mode, expect", [
    ("corrupt_ring", ("detected", 90, 90, 0, 90,
                      {"log_prefix_agreement": 90}, 80)),
    ("dup_ring", ("detected", 30, 30, 0, 30,
                  {"log_prefix_agreement": 30}, 80)),
])
def test_acuerdo_attacked_ring_is_pinned(mode, expect):
    out = run_attack("acuerdo", mode)
    assert (out.outcome, out.attempts, out.landed, out.blocked,
            out.violations, dict(out.by_monitor), out.completed) == expect


def _attacked_failover(mode: str) -> tuple:
    """The ring attack armed on every follower as the leader is
    descheduled for 1 ms: the new leader's epoch-opening diffs cross
    its attacked ring, so their entries are forged too (one attempt
    per diff carrying a client payload, on top of the broadcasts)."""
    engine = Engine(seed=7)
    registry = MonitorRegistry(engine)
    system = build_from_spec(RunSpec(system="acuerdo", n=4), engine,
                             record_deliveries=True)
    settle(system, preseed=False)
    byz = ByzantineInjector(engine, system)
    old = system.leader_id()
    state = {"submitted": 0, "completed": 0}

    def fail_over() -> None:
        for node in system.node_ids:
            if node != old:
                byz.arm(mode, node)
        FailureInjector(engine, system.processes()).deschedule_at(
            engine.now, old, ms(1))

    def on_commit(_hdr) -> None:
        state["completed"] += 1

    def pump() -> None:
        if state["submitted"] < 80:
            if system.submit(("cl", state["submitted"]), 64,
                             on_commit=on_commit):
                state["submitted"] += 1
            engine.schedule(us(20), pump)

    engine.schedule(ms(1), fail_over)
    engine.schedule(0, pump)
    engine.run(until=engine.now + ms(10))
    violations = registry.finish()
    by_monitor: dict[str, int] = {}
    for v in violations:
        by_monitor[v.monitor] = by_monitor.get(v.monitor, 0) + 1
    assert system.leader_id() != old, "the attacked ring never shipped diffs"
    return (classify(byz, mode, len(violations)), byz.attempts[mode],
            byz.landed[mode], byz.blocked[mode], len(violations), by_monitor,
            state["completed"])


@pytest.mark.parametrize("mode, expect", [
    ("corrupt_ring", ("detected", 90, 90, 0, 87,
                      {"log_prefix_agreement": 87}, 79)),
    ("dup_ring", ("detected", 30, 30, 0, 29,
                  {"log_prefix_agreement": 29}, 79)),
])
def test_acuerdo_attacked_ring_forges_diff_entries(mode, expect):
    # Without the diff entries forged, the attempts read 87 and 29.
    assert _attacked_failover(mode) == expect


def test_outcome_to_dict_is_json_serialisable():
    out = run_attack("zookeeper", "equivocate", n=4, seed=7)
    d = out.to_dict()
    assert d["system"] == "zookeeper" and d["mode"] == "equivocate"
    assert isinstance(d["by_monitor"], dict)
    json.dumps(d)                           # round-trips to JSON


# -------------------------------------------------------------- the matrix


def test_attack_matrix_covers_the_product_and_renders():
    systems = ("acuerdo", "bracha")
    modes = ("equivocate", "replay_sst")
    outcomes = attack_matrix(systems, modes, n=4, seed=7)
    assert [(o.system, o.mode) for o in outcomes] == [
        (s, m) for s in systems for m in modes]
    # The two headline cells of the suite:
    cell = {(o.system, o.mode): o for o in outcomes}
    assert cell[("acuerdo", "replay_sst")].outcome == "neutralized"
    assert cell[("bracha", "equivocate")].outcome == "absorbed"
    assert cell[("bracha", "equivocate")].violations == 0
    text = render_matrix(outcomes)
    lines = text.splitlines()
    assert lines[0].startswith("system")
    assert any(line.startswith("acuerdo") and "neutralized" in line
               for line in lines)
    assert any(line.startswith("bracha") and "absorbed" in line
               for line in lines)


def test_adversary_systems_include_the_ablation_and_the_bft_baselines():
    assert "acuerdo-unprotected" in ADVERSARY_SYSTEMS
    assert "dolev" in ADVERSARY_SYSTEMS and "bracha" in ADVERSARY_SYSTEMS


def test_attack_outcome_is_frozen():
    out = AttackOutcome(system="x", mode="equivocate", attacker=0,
                        outcome="n/a", attempts=0, landed=0, blocked=0,
                        violations=0)
    with pytest.raises(Exception):
        out.system = "y"


# --------------------------------------------------------------------- CLI


def test_cli_adversary_json_single_cell(capsys):
    from repro.__main__ import main

    rc = main(["adversary", "--systems", "bracha", "--modes", "equivocate",
               "--nodes", "4", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 1
    assert doc[0]["system"] == "bracha"
    assert doc[0]["outcome"] == "absorbed"
    assert doc[0]["violations"] == 0


def test_cli_adversary_matrix_table(capsys):
    from repro.__main__ import main

    rc = main(["--seed", "7", "adversary", "--systems", "zookeeper",
               "--modes", "equivocate", "--matrix"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "detected" in out
    assert "WITNESS zookeeper/equivocate" in out
    assert "two leaders for term" in out


def test_cli_adversary_rejects_unknown_mode(capsys):
    from repro.__main__ import main

    rc = main(["adversary", "--modes", "lie"])
    assert rc == 2
    assert "unknown attack mode" in capsys.readouterr().err


def test_cli_shootout_byz_flag_fails_exit_code_on_detection(capsys):
    from repro.__main__ import main

    rc = main(["shootout", "--systems", "zookeeper", "--nodes", "4",
               "--messages", "40", "--check-invariants",
               "--byz", "equivocate:1@1"])
    assert rc == 1
    assert "VIOLATION" in capsys.readouterr().err


def test_cli_shootout_partition_flag_applies(capsys):
    from repro.__main__ import main

    rc = main(["shootout", "--systems", "acuerdo", "--messages", "40",
               "--check-invariants", "--partition", "0,1|2@1-4"])
    assert rc == 0                          # quorum holds; no violation


def test_every_mode_is_spellable_from_the_cli():
    from repro.sim.failure import parse_byz

    for mode in BYZ_MODES:
        assert parse_byz(f"{mode}:1@2")[0] == mode
