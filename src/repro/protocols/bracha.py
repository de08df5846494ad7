"""Bracha reliable broadcast over TCP — a Byzantine-tolerant baseline.

Bracha's double-echo protocol (Bracha 1987) tolerates ``f < n/3``
Byzantine nodes with no authentication: a sequencer SENDs each message,
every node ECHOes what it received, sends READY once an echo quorum
``⌈(n+f+1)/2⌉`` agrees on one value, amplifies READY at ``f+1`` and
delivers at ``2f+1``.  The two-quorum structure guarantees any two
nodes that deliver a slot deliver the *same* value even when the
sequencer equivocates — the property the adversary harness checks by
firing the equivocation attack at it (the attack is *absorbed*: the
forked slot simply never reaches an echo quorum, so nothing diverges).

Total order rides the sequencer's slot numbers (a Byzantine-tolerant
*atomic* broadcast would rotate the sequencer or agree on batches; the
repro needs the reliable-broadcast core, which is where the Byzantine
quorum maths lives).  Cost model matches the TCP baselines: per-message
request/echo CPU plus the shared kernel send path — with ``O(n²)``
message complexity, which is the price of Byzantine tolerance the
Fig. 8-style comparison surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.protocols.tcpreplica import (SequencedCluster, SequencedReplica,
                                        SlotSet)
from repro.sim.engine import Engine
from repro.sim.process import ProcessConfig
from repro.substrate import TcpParams


@dataclass
class BrachaConfig:
    """Deployment cost knobs (lean service, no disk in the loop)."""

    request_cpu_ns: int = 6_000
    echo_cpu_ns: int = 1_500
    max_requests_per_poll: int = 8
    msg_overhead_bytes: int = 40
    process: ProcessConfig = field(
        default_factory=lambda: ProcessConfig(poll_interval_ns=2_000,
                                              poll_jitter_ns=500))


class BrachaNode(SequencedReplica):
    """One replica of the double-echo broadcast."""

    # A delivery is certified by 2f+1 READYs.
    quorum_certified = True

    def __init__(self, cluster: "BrachaCluster", node_id: int,
                 cfg: BrachaConfig):
        super().__init__(cluster, node_id, cfg, name=f"bracha{node_id}")
        self._echoed = SlotSet()                  # slots this node echoed
        self._readied = SlotSet()                 # slots this node readied
        # Untrusted slot -> value -> echoers / readiers.  A trusted slot
        # has been readied, so later votes for it change nothing and
        # its tallies are dropped.
        self._echoes: dict[int, dict[Any, set[int]]] = {}
        self._readies: dict[int, dict[Any, set[int]]] = {}

    def _slot_msg(self, s: int, payload: Any, size: int) -> tuple:
        return ("SEND", s, payload, size)

    def _receive_own(self, s: int, payload: Any, size: int) -> None:
        self._on_send(s, payload, size)

    # -------------------------------------------------------------- messages

    def _dispatch(self, src: int, msg: tuple) -> None:
        kind = msg[0]
        if kind == "SEND":
            self._on_send(msg[1], msg[2], msg[3])
        elif kind == "ECHO":
            self._on_echo(src, msg[1], msg[2], msg[3])
        elif kind == "READY":
            self._on_ready(src, msg[1], msg[2], msg[3])

    def _on_send(self, s: int, v: Any, size: int) -> None:
        # Echo at most one value per slot: the anti-equivocation rule.
        if s in self._echoed:
            return
        self._echoed.add(s)
        self.cpu.charge(self.cfg.echo_cpu_ns)
        probe = self.engine.probe
        if probe is not None:
            # Echoing is this node's per-slot acceptance vote for v.
            probe.note(self.cluster, "accept_one", self.node_id,
                       slot=s, key=v)
        self._bcast(self._live_peers(), ("ECHO", s, v, size), size)
        self._on_echo(self.node_id, s, v, size)

    def _on_echo(self, src: int, s: int, v: Any, size: int) -> None:
        if self._trusted(s):
            return
        nodes = self._echoes.setdefault(s, {}).setdefault(v, set())
        nodes.add(src)     # a set: duplicated echoes collapse
        if len(nodes) >= self.cluster.echo_quorum and s not in self._readied:
            self._send_ready(s, v, size)

    def _on_ready(self, src: int, s: int, v: Any, size: int) -> None:
        if self._trusted(s):
            return
        nodes = self._readies.setdefault(s, {}).setdefault(v, set())
        nodes.add(src)
        if len(nodes) >= self.cluster.f + 1 and s not in self._readied:
            self._send_ready(s, v, size)   # READY amplification
        if len(nodes) >= 2 * self.cluster.f + 1:
            self._deliver_slot(s, v)
            self._echoes.pop(s, None)
            self._readies.pop(s, None)

    def _send_ready(self, s: int, v: Any, size: int) -> None:
        self._readied.add(s)
        self.cpu.charge(self.cfg.echo_cpu_ns)
        probe = self.engine.probe
        if probe is not None:
            # The ready vote re-asserts acceptance of v for slot s (the
            # per-node sets in the quorum monitor collapse the repeat).
            probe.note(self.cluster, "accept_one", self.node_id,
                       slot=s, key=v)
        self._bcast(self._live_peers(), ("READY", s, v, size), size)
        self._on_ready(self.node_id, s, v, size)


class BrachaCluster(SequencedCluster):
    """A Bracha reliable-broadcast deployment with a fixed sequencer."""

    name = "bracha"
    node_class = BrachaNode
    config_class = BrachaConfig

    def __init__(self, engine: Engine, n: int,
                 config: Optional[BrachaConfig] = None,
                 tcp_params: Optional[TcpParams] = None,
                 record_deliveries: bool = True):
        super().__init__(engine, n, config, tcp_params, record_deliveries)
        self.echo_quorum = (n + self.f) // 2 + 1   # ⌈(n+f+1)/2⌉
