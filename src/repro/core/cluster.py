"""Wiring of an Acuerdo deployment over the simulated RDMA fabric.

The cluster owns what §3 calls the instance: one ring buffer per node
(all-to-all mirrors, §3.2), the three SSTs (Accept, Vote, Commit) and
the node processes.  It implements the harness-facing
:class:`~repro.protocols.base.BroadcastSystem` interface.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import AcuerdoConfig
from repro.core.node import AcuerdoNode, Role
from repro.core.trains import HeartbeatTrains
from repro.core.types import CommitRow, Epoch, MsgHdr, Vote, HDR_ZERO, VOTE_BYTES, \
    COMMIT_ROW_BYTES, HDR_BYTES
from repro.protocols.base import BroadcastSystem
from repro.sim.engine import Engine
from repro.substrate import (RdmaParams, RingBuffer, SharedStateTable,
                             build_substrate)


class AcuerdoCluster(BroadcastSystem):
    """An ``n = 2f + 1`` node Acuerdo instance."""

    name = "acuerdo"
    client_hop_ns = 1_100   # one-sided write + poll discovery (§4.3)

    def __init__(self, engine: Engine, n: int, config: Optional[AcuerdoConfig] = None,
                 rdma_params: Optional[RdmaParams] = None, record_deliveries: bool = True):
        super().__init__(engine, n, record_deliveries)
        self.cfg = config or AcuerdoConfig()
        # Group-wide commit high-water mark for the monitor event stream:
        # headers are totally ordered and the quorum monitor dedups by
        # slot, so only the first commit of each slot needs an event.
        self._mon_commit_hwm: Optional[object] = None
        self.fabric = self.substrate = build_substrate(
            "rdma", engine, node_ids=self.node_ids, params=rdma_params)

        # One broadcast ring per prospective leader (§3.2: each node has
        # one outgoing buffer and one incoming buffer per remote node).
        self.rings: dict[int, RingBuffer] = {
            i: RingBuffer(self.fabric, i, self.node_ids,
                          capacity=self.cfg.ring_capacity,
                          writes_per_message=1,
                          signal_interval=self.cfg.signal_interval,
                          name=f"acuerdo.ring.{i}")
            for i in self.node_ids}

        self.accept_sst = SharedStateTable(self.fabric, "accept", self.node_ids,
                                           row_size_bytes=HDR_BYTES, initial=HDR_ZERO,
                                           signal_interval=self.cfg.signal_interval)
        self.vote_sst = SharedStateTable(self.fabric, "vote", self.node_ids,
                                         row_size_bytes=VOTE_BYTES, initial=None,
                                         signal_interval=self.cfg.signal_interval)
        self.commit_sst = SharedStateTable(self.fabric, "commit", self.node_ids,
                                           row_size_bytes=COMMIT_ROW_BYTES,
                                           initial=CommitRow(HDR_ZERO, 0),
                                           signal_interval=self.cfg.signal_interval)

        self.nodes: dict[int, AcuerdoNode] = {
            i: AcuerdoNode(self, i, self.cfg) for i in self.node_ids}
        # Poll-elision doorbells: every one-sided deposit into a node's
        # memory (ring slots, SST rows) wakes its poll loop if parked —
        # except Commit-SST rows that only carry a heartbeat, which the
        # node rules quiet.  Bound here because replicas never go
        # through fabric.attach().
        for i, node in self.nodes.items():
            self.fabric.nic(i).waker = node
            self.commit_sst.declare_quiet(i, node.heartbeat_is_quiet)
        #: Commit-SST heartbeats a parked replica elides (DESIGN.md §6,
        #: "Heartbeat trains"); nodes read it from their first poll on.
        self.trains = HeartbeatTrains(self)
        self._leader_hint: Optional[int] = None

    # ------------------------------------------------------------- lifecycle

    def preseed_leader(self, leader: int = 0, round_nbr: int = 1) -> None:
        """Install the steady state of epoch ``(round_nbr, leader)`` on
        every node, as if the cold-start election (and its diff) had
        already completed.  Benchmark fast-path; correctness tests run
        the real election instead."""
        epoch = Epoch(round_nbr, leader)
        hdr0 = MsgHdr(epoch, 0)
        for i, node in self.nodes.items():
            node.preseed(epoch, Role.LEADER if i == leader else Role.FOLLOWER)
        # Make every replicated SST copy agree (the writes above only
        # touched each node's own row in its own copy).
        for reader in self.node_ids:
            for owner in self.node_ids:
                self.accept_sst.copies[reader][owner] = hdr0
                self.commit_sst.copies[reader][owner] = CommitRow(hdr0, 0)
                self.vote_sst.copies[reader][owner] = Vote(epoch, hdr0)
        self._leader_hint = leader

    # ---------------------------------------------------------------- client

    # The inherited submit, bound in this class's namespace because
    # bench/hosttrace.py wraps ``submit`` here by name.
    submit = BroadcastSystem.submit

    def leader_id(self) -> Optional[int]:
        """The live node currently acting as leader (highest epoch wins
        when a deposed leader has not yet learned of its successor)."""
        best: Optional[AcuerdoNode] = None
        for node in self.nodes.values():
            if node.crashed or node.role is not Role.LEADER:
                continue
            if best is None or node.E_cur > best.E_cur:
                best = node
        return best.node_id if best is not None else None

    # ------------------------------------------------------------- callbacks

    def note_new_leader(self, node_id: int) -> None:
        old = self._leader_hint
        self._leader_hint = node_id
        # Re-route client payloads stranded at a deposed/crashed leader;
        # real clients re-send on timeout, this models that cheaply.
        if old is not None and old != node_id:
            stranded = self.nodes[old].pending
            if stranded:
                self.nodes[node_id].pending.extend(stranded)
                self.nodes[old].pending = []

    # ------------------------------------------------------------ inspection

    def roles(self) -> dict[int, Role]:
        return {i: n.role for i, n in self.nodes.items()}
