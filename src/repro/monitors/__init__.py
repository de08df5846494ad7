"""Online safety monitors over the span/metrics stream.

The atomic-broadcast safety properties the paper depends on — single
leader per term (§3.3), log-prefix agreement (§2.2 Total Order),
commit-implies-quorum-accept (§3.1) and accept-based slot-reuse safety
(§4.1) — historically lived only as offline assertions in
``tests/properties``.  This package turns them into *online* monitors
that evaluate during any run:

- protocols emit a small vocabulary of **normalized monitor events**
  (``leader``, ``accept``/``accept_one``/``accept_trunc``, ``commit``,
  ``deliver``, ``slot_bind``/``slot_release``) through
  ``engine.probe.note`` — the engine's one observation attachment,
  loaded and None-tested once per hook site, so runs with nothing
  attached stay bit-identical;
- a :class:`MonitorRegistry` demultiplexes events per consensus group
  (sharded deployments get per-group monitor instances for free) and
  feeds each registered :class:`Monitor`;
- violations are :class:`Violation` records carrying the simulated
  time, shard, protocol and the witness events, surfaced through the
  :class:`~repro.obs.metrics.MetricsRegistry` as
  ``monitor.<name>.violations`` and through CLI exit codes
  (``--check-invariants``); :func:`finish_monitors` is the end-of-run
  reader, empty when no registry is attached.

Enable per run with ``RunSpec(check_invariants=True)`` or the
``--check-invariants`` CLI flag.
"""

from repro.monitors.registry import (
    DEFAULT_MONITORS,
    GroupContext,
    Monitor,
    MonitorEvent,
    MonitorRegistry,
    Violation,
    finish_monitors,
)
from repro.monitors.invariants import (
    CommitQuorumAccept,
    LogPrefixAgreement,
    SingleLeaderPerTerm,
    SlotReuseSafety,
    SstMonotonic,
)

__all__ = [
    "CommitQuorumAccept",
    "DEFAULT_MONITORS",
    "GroupContext",
    "LogPrefixAgreement",
    "Monitor",
    "MonitorEvent",
    "MonitorRegistry",
    "SingleLeaderPerTerm",
    "SlotReuseSafety",
    "SstMonotonic",
    "Violation",
    "finish_monitors",
]
