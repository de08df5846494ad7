"""Dolev reliable broadcast over TCP — the path-redundancy baseline.

Dolev's protocol (Dolev 1982) tolerates ``f < n/3`` Byzantine nodes in
a point-to-point network with *no* signatures by flooding each message
along with the path it travelled: a receiver trusts a (slot, value)
pair once it arrives directly from the source, or over ``f + 1``
pairwise node-disjoint relay paths — at most ``f`` of which can contain
a liar, so at least one path carried the truth.

Two modelling notes that matter to the adversary harness:

- a receiver folds the *transport-level sender* into every claimed
  path (``{src} ∪ P``): a relayer can fabricate the path list it
  forwards, but it cannot remove itself from the route the message
  actually took, so forged paths all share the forger and can never
  look disjoint (the ``inflate`` attack starves);
- the source itself may equivocate — plain Dolev only guarantees that
  *relayed* lies don't win, so the equivocation attack legitimately
  diverges deliveries and the log-prefix monitor must flag it.  (Bracha
  is the baseline that closes that hole.)

Total order rides the source's slot numbers: the source is the fixed
sequencer of :class:`~repro.protocols.tcpreplica.SequencedCluster`, as
in :mod:`repro.protocols.bracha`; delivery emits no ``commit`` events —
direct receipt needs no quorum certificate, so there is no
commit-implies-quorum obligation to check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.protocols.tcpreplica import SequencedCluster, SequencedReplica
from repro.sim.process import ProcessConfig


@dataclass
class DolevConfig:
    """Deployment cost knobs."""

    request_cpu_ns: int = 6_000
    relay_cpu_ns: int = 1_500
    max_requests_per_poll: int = 8
    msg_overhead_bytes: int = 40
    path_entry_bytes: int = 4
    process: ProcessConfig = field(
        default_factory=lambda: ProcessConfig(poll_interval_ns=2_000,
                                              poll_jitter_ns=500))


class DolevNode(SequencedReplica):
    """One replica of the path-flooding broadcast."""

    def __init__(self, cluster: "DolevCluster", node_id: int,
                 cfg: DolevConfig):
        super().__init__(cluster, node_id, cfg, name=f"dolev{node_id}")
        #: untrusted slot -> value -> effective paths observed so far
        self._paths: dict[int, dict[Any, list[frozenset]]] = {}
        #: (slot, value) pairs relayed.  Kept past delivery: a late copy
        #: of a delivered pair must still not be relayed a second time.
        self._relayed: set[tuple] = set()
        self._max_slot = -1

    def latest_slot(self) -> Optional[int]:
        """Highest slot this node has seen traffic for (adversarial
        pumps target it to collide with live consensus state)."""
        return self._max_slot if self._max_slot >= 0 else None

    def _slot_msg(self, s: int, payload: Any, size: int) -> tuple:
        return ("MSG", s, payload, size, ())

    def _receive_own(self, s: int, payload: Any, size: int) -> None:
        self._deliver_slot(s, payload)     # the source trusts itself

    # -------------------------------------------------------------- messages

    def _dispatch(self, src: int, msg: tuple) -> None:
        if msg[0] != "MSG":
            return
        _, s, v, size, path = msg
        if s > self._max_slot:
            self._max_slot = s
        source = self.cluster.sequencer
        direct = src == source and not path
        # The claimed path cannot omit the hop that actually happened:
        # fold the transport-level sender in (the source itself is never
        # path material — path entries are relayers only).
        eff = frozenset(path) | ({src} if src != source else frozenset())
        if not self._trusted(s):
            if not direct:
                paths = self._paths.setdefault(s, {}).setdefault(v, [])
                if eff not in paths:
                    paths.append(eff)
            if direct or self._disjoint_count(paths) >= self.cluster.f + 1:
                self._deliver_slot(s, v)
                self._paths.pop(s, None)
        # Relay the first receipt of each (slot, value), while the route
        # is still short enough for the disjointness budget to care.
        if (s, v) not in self._relayed and len(eff) <= self.cluster.f:
            self._relayed.add((s, v))
            self.cpu.charge(self.cfg.relay_cpu_ns)
            fwd_path = tuple(sorted(eff | {self.node_id}))
            skip = eff | {source}
            self._bcast([p for p in self._live_peers() if p not in skip],
                        ("MSG", s, v, size, fwd_path),
                        size + len(fwd_path) * self.cfg.path_entry_bytes)
            self.engine.trace.count("dolev.relay")

    @staticmethod
    def _disjoint_count(paths: "list[frozenset]") -> int:
        """Greedy maximum pairwise-disjoint subset size (paths are tiny:
        at most f relayer ids each)."""
        count = 0
        used: set = set()
        for p in sorted(paths, key=len):
            if not (p & used):
                count += 1
                used |= p
        return count


class DolevCluster(SequencedCluster):
    """A Dolev reliable-broadcast deployment; the fixed sequencer is
    the source."""

    name = "dolev"
    node_class = DolevNode
    config_class = DolevConfig
