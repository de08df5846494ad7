"""Byzantine injection: grammar, true positives, and bit-identity.

Three obligations, per attack mode:

- **true positive** — the attack, mounted against a system whose
  safety argument does not cover it, trips a monitor and produces a
  witness line naming the forged state;
- **no false positive** — the identical monitored workload with no
  injector armed reports zero violations on every adversary-matrix
  system;
- **bit-identity** — attaching an injector that never arms (and not
  attaching one at all) leaves the run bit-identical to the golden
  fingerprints: the hooks are ``is None``-gated and a gate that is
  merely *present* must be invisible.
"""

from __future__ import annotations

import pytest

from repro.harness.adversary import ADVERSARY_SYSTEMS, _build, run_attack
from repro.harness.factory import build_from_spec, settle
from repro.harness.runspec import RunSpec
from repro.monitors import MonitorRegistry
from repro.sim.byzantine import (
    BYZ_MODES,
    ByzantineInjector,
    parse_byz,
    schedule_byz,
)
from repro.sim.engine import Engine, ms, us
from tests.substrate.test_golden_fingerprints import (
    GOLDEN_FINGERPRINTS,
    run_protocol,
)


# ----------------------------------------------------------- the grammar


def test_parse_byz_entries():
    assert parse_byz("equivocate:1@2") == ("equivocate", 1, 2.0)
    assert parse_byz("inflate:3:1@0.5") == ("inflate", (3, 1), 0.5)
    assert parse_byz("dup_ring:0@0") == ("dup_ring", 0, 0.0)


@pytest.mark.parametrize("bad", [
    "equivocate",        # no addr / time
    "equivocate:1",      # no @MS
    "lie:1@2",           # unknown mode
    "equivocate:@2",     # empty addr
    "equivocate:x@2",    # bad addr
    "equivocate:1@soon", # bad time
    "equivocate:1@-1",   # negative time
    "@2",                # nothing at all
])
def test_parse_byz_rejects_malformed_entries(bad):
    with pytest.raises(ValueError):
        parse_byz(bad)


def test_runspec_validates_byz_entries_eagerly():
    spec = RunSpec(system="acuerdo", byz=["equivocate:1@2"])
    assert spec.byz == ("equivocate:1@2",)      # normalised to a tuple
    with pytest.raises(ValueError):
        RunSpec(system="acuerdo", byz=("equivocate:1",))


def test_injector_rejects_unknown_mode():
    engine = Engine(seed=1)
    system = build_from_spec(RunSpec(system="acuerdo", n=3), engine)
    byz = ByzantineInjector(engine, system)
    with pytest.raises(ValueError):
        byz.schedule("lie", 1, 2.0)
    with pytest.raises(ValueError):
        byz.arm("lie", 1)


# ---------------------------------------------------------- true positives

#: For every attack mode, one (system, oracle) pair where the attack
#: must land AND be caught: the mode's true-positive witness.
TRUE_POSITIVES = [
    ("equivocate", "acuerdo-unprotected", "single_leader_per_term"),
    ("replay_sst", "acuerdo-unprotected", "sst_monotonic"),
    ("inflate", "acuerdo-unprotected", "commit_quorum_accept"),
    ("corrupt_ring", "acuerdo", "log_prefix_agreement"),
    ("dup_ring", "acuerdo", "log_prefix_agreement"),
    ("tamper", "zookeeper", "log_prefix_agreement"),
    ("duplicate", "zookeeper", "log_prefix_agreement"),
]


def test_every_mode_has_a_true_positive_row():
    assert {m for m, _, _ in TRUE_POSITIVES} == set(BYZ_MODES)


@pytest.mark.parametrize("mode,system,monitor", TRUE_POSITIVES)
def test_attack_true_positive_with_witness(mode, system, monitor):
    out = run_attack(system, mode, n=4, seed=7)
    assert out.outcome == "detected"
    assert out.attempts > 0 and out.landed > 0
    assert out.violations > 0
    assert monitor in dict(out.by_monitor)
    assert out.witness                      # a concrete witness line
    assert monitor in out.witness or "node" in out.witness


def test_equivocation_witness_names_both_leaders():
    out = run_attack("acuerdo-unprotected", "equivocate", n=4, seed=7)
    assert "two leaders for term" in out.witness


# ------------------------------------------------- protection / absorption


def test_sst_protection_neutralizes_replay_and_inflate():
    """The RDMA protection-domain argument: a non-owner's write into a
    remote SST row bounces off the per-row grant before any monitor
    could even see it."""
    for mode in ("replay_sst", "inflate", "equivocate"):
        out = run_attack("acuerdo", mode, n=4, seed=7)
        assert out.outcome == "neutralized", (mode, out)
        assert out.blocked > 0 and out.landed == 0
        assert out.violations == 0


def test_bracha_absorbs_sequencer_equivocation():
    """The echo quorum intersects: a forked SEND cannot produce two
    delivered values for one slot — violations stay zero and the
    workload completes."""
    out = run_attack("bracha", "equivocate", n=4, seed=7)
    assert out.outcome == "absorbed"
    assert out.landed > 0
    assert out.violations == 0
    assert out.completed == 80              # liveness kept too


def test_dolev_sender_folding_defeats_path_forgery():
    """A relayer can fabricate the path list it forwards but not remove
    itself from the route: forged paths all share the forger, never
    look disjoint, and the flood is absorbed."""
    out = run_attack("dolev", "inflate", n=4, seed=7)
    assert out.outcome == "absorbed"
    assert out.violations == 0


def test_dolev_flags_source_equivocation():
    """Plain Dolev only defends against lying *relayers*; a forked
    source legitimately diverges deliveries and the prefix monitor
    must say so (Bracha is the baseline that closes this hole)."""
    out = run_attack("dolev", "equivocate", n=4, seed=7)
    assert out.outcome == "detected"
    assert "log_prefix_agreement" in dict(out.by_monitor)


# ------------------------------------------------------- no false positives


@pytest.mark.parametrize("system", ADVERSARY_SYSTEMS)
def test_honest_run_reports_zero_violations(system):
    """The exact adversary-harness workload, monitors attached, no
    injector armed: every system must come out clean."""
    engine = Engine(seed=7)
    registry = MonitorRegistry(engine)
    sys_obj = _build(system, engine, 4)
    settle(sys_obj, preseed=False)
    state = {"submitted": 0}

    def pump():
        if state["submitted"] < 80:
            if sys_obj.submit(("cl", state["submitted"]), 64):
                state["submitted"] += 1
            engine.schedule(us(20), pump)

    engine.schedule(0, pump)
    engine.run(until=engine.now + ms(10))
    assert registry.finish() == []


# ------------------------------------------------------------ bit-identity


@pytest.mark.parametrize("name", ["acuerdo", "zookeeper", "bracha"])
def test_unarmed_injector_is_bit_invisible(name):
    """Attaching the injector without arming any mode must not move a
    single event: the golden-fingerprint workload still matches."""
    engine = Engine(seed=7)
    system = build_from_spec(RunSpec(system=name, n=3), engine)
    settle(system)
    ByzantineInjector(engine, system)       # attached, never armed
    state = {"submitted": 0}

    def pump():
        if state["submitted"] < 24:
            if system.submit(("m", state["submitted"]), 64):
                state["submitted"] += 1
            engine.schedule(us(20), pump)

    engine.schedule(0, pump)
    engine.run(until=engine.now + ms(30))
    observed = (engine.trace.fingerprint(),
                tuple(sorted(system.deliveries.counts.items())),
                system.leader_id(), system.substrate_counters())
    assert observed == GOLDEN_FINGERPRINTS[name]


def test_byz_off_matches_golden_for_every_system():
    """`run_protocol` never attaches an injector; the golden table is
    asserted per-system elsewhere — here we spot-check that the hook
    sites (tcp, fabric, ringbuffer, sst) left acuerdo untouched."""
    assert run_protocol("acuerdo") == GOLDEN_FINGERPRINTS["acuerdo"]


# ----------------------------------------------------------- the schedule


def test_schedule_byz_applies_a_runspec_schedule():
    engine = Engine(seed=7)
    system = build_from_spec(RunSpec(system="acuerdo", n=3), engine)
    settle(system)
    byz = schedule_byz(engine, system, ["corrupt_ring:0@0.2"])
    assert byz is not None and engine.byz is byz
    state = {"submitted": 0}

    def pump():
        # ("cl", i) payloads: the forgery predicate targets client
        # leaves, as in the adversary harness workload.
        if state["submitted"] < 24:
            if system.submit(("cl", state["submitted"]), 64):
                state["submitted"] += 1
            engine.schedule(us(20), pump)

    engine.schedule(0, pump)
    engine.run(until=engine.now + ms(5))
    assert byz.attempts["corrupt_ring"] > 0
    assert byz.counters()["attempts"]["corrupt_ring"] > 0


def test_schedule_byz_empty_schedule_is_none():
    engine = Engine(seed=7)
    system = build_from_spec(RunSpec(system="acuerdo", n=3), engine)
    assert schedule_byz(engine, system, []) is None
    assert engine.byz is None
