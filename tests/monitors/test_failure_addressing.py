"""Unified ``(group, node)`` failure addressing and the CLI safety flags.

One address grammar serves every text boundary — ``"1"`` (flat node),
``"3:1"`` (group 3's node 1), ``"addr@ms"`` crash-schedule entries —
and the :class:`FailureInjector` refuses ambiguous flat ids in sharded
deployments instead of silently picking a group.
"""

from __future__ import annotations

import pytest

from repro.sim.failure import (
    CrashEntry,
    FailureInjector,
    FaultPlan,
    arm_faults,
    format_addr,
    parse_addr,
    parse_crash,
)


# ----------------------------------------------------------- the grammar


def test_parse_addr_accepts_every_spelling():
    assert parse_addr("1") == 1
    assert parse_addr("3:1") == (3, 1)
    assert parse_addr(7) == 7
    assert parse_addr((2, 0)) == (2, 0)


@pytest.mark.parametrize("bad", ["", "a", "1:b", "1:2:3", (1, 2, 3), (1, "x")])
def test_parse_addr_rejects_malformed_addresses(bad):
    with pytest.raises(ValueError):
        parse_addr(bad)


def test_format_addr_round_trips():
    for spelled in ("0", "17", "3:1", "0:0"):
        assert format_addr(parse_addr(spelled)) == spelled
        assert format_addr(spelled) == spelled


def test_parse_crash_entries():
    assert parse_crash("0@5") == (0, 5.0)
    assert parse_crash("3:1@2.5") == ((3, 1), 2.5)
    for bad in ("0", "0@", "0@soon", "0@-1", "x@5"):
        with pytest.raises(ValueError):
            parse_crash(bad)


def test_runspec_validates_crash_entries_eagerly():
    from repro.harness import RunSpec

    spec = RunSpec(system="acuerdo", crashes=["0@5", "0:2@3"])
    assert spec.crashes == ("0@5", "0:2@3")    # normalised to a tuple
    # One address rule: a bare id and a group-0 address name the same
    # node of a single-group run.
    assert spec.faults.crashes == (CrashEntry(0, 0, 5.0),
                                   CrashEntry(0, 2, 3.0))
    with pytest.raises(ValueError):
        RunSpec(system="acuerdo", crashes=("0",))


# ------------------------------------------------------------- injection


class _FakeProc:
    """Just enough Process surface for injector address resolution."""

    def __init__(self, node_id, group=None):
        self.node_id = node_id
        self.group = group
        self.crashed = False

    def crash(self):
        self.crashed = True

    @property
    def addr(self):
        return self.node_id if self.group is None else (self.group,
                                                        self.node_id)


class _FakeEngine:
    def __init__(self):
        self.scheduled = []

    def schedule_at(self, t, fn, *args):
        self.scheduled.append((t, fn, args))


def test_bare_int_is_ambiguous_across_groups_and_names_the_alternatives():
    procs = [_FakeProc(n, group=g) for g in (0, 1) for n in (0, 1, 2)]
    inj = FailureInjector(_FakeEngine(), procs)
    with pytest.raises(KeyError) as exc:
        inj.crash_at(0, 1)
    msg = str(exc.value)
    assert "ambiguous" in msg and "groups [0, 1]" in msg
    assert "(0, 1)" in msg and "'1:1'" in msg
    # The hierarchical spellings all resolve.
    assert inj._proc((1, 2)) is procs[5]
    assert inj._proc("0:2") is procs[2]


def test_bare_int_keeps_its_meaning_in_single_group_runs():
    procs = [_FakeProc(n) for n in range(3)]
    inj = FailureInjector(_FakeEngine(), procs)
    assert inj._proc(2) is procs[2]
    assert inj._proc("2") is procs[2]
    with pytest.raises(KeyError):
        inj._proc(9)


def test_alive_reports_hierarchical_addresses_in_sharded_runs():
    procs = [_FakeProc(n, group=0) for n in range(2)]
    inj = FailureInjector(_FakeEngine(), procs)
    procs[0].crashed = True
    assert inj.alive() == [(0, 1)]


def test_schedule_crashes_applies_a_runspec_schedule():
    from repro.harness import RunSpec, build_from_spec, settle
    from repro.sim import Engine, ms

    engine = Engine(seed=1)
    system = build_from_spec(RunSpec(system="acuerdo", n=3), engine)
    settle(system)
    arm_faults(engine, RunSpec(system="acuerdo", crashes=["2@1"]).faults,
               {0: system})
    engine.run(until=engine.now + ms(2))
    assert [p.node_id for p in system.processes() if not p.crashed] == [0, 1]
    pushes = engine.heap_pushes
    arm_faults(engine, FaultPlan(), {0: system})
    assert engine.heap_pushes == pushes and engine.byz is None


# ----------------------------------------------------------------- CLI


def test_cli_shootout_check_invariants_exits_zero(capsys):
    from repro.__main__ import main

    rc = main(["shootout", "--systems", "acuerdo", "--messages", "80",
               "--check-invariants", "--crash", "2@2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "violations" in out      # the monitored column is rendered


def test_cli_shard_check_invariants_exits_zero(capsys):
    from repro.__main__ import main

    rc = main(["--workers", "1", "shard", "--shards", "2", "--skews", "0.0",
               "--users", "1000", "--rate", "100000", "--duration-ms", "2.0",
               "--check-invariants"])
    assert rc == 0
    assert "violations" in capsys.readouterr().out


def test_cli_trace_check_invariants_exits_zero(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "trace.json"
    rc = main(["trace", "--system", "acuerdo", "--duration-ms", "2.0",
               "--check-invariants", "--out", str(out)])
    assert rc == 0
    assert out.exists()


def test_cli_rejects_malformed_crash_flag(capsys):
    from repro.__main__ import main

    rc = main(["shootout", "--systems", "acuerdo", "--messages", "20",
               "--crash", "nonsense"])
    assert rc == 2      # a usage error; exit 1 means a safety violation
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse crash 'nonsense'")
