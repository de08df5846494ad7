"""The remote-log skeleton of the RDMA lineage DARE → APUS → Mu (§5).

All three replicate the same way: the leader writes log entries straight
into each acceptor's registered log region with one-sided writes, and an
acceptor learns how far the log is committed from the leader's row of a
Commit SST.  :class:`LogReplica` and :class:`LogCluster` hold that shared
mechanism — the log store, the delivery loop, the commit-row push and the
cluster wiring — so each protocol module keeps only what makes it that
protocol: how the leader learns that acceptors hold an entry and how a
new leader takes over.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.protocols.base import BroadcastSystem, CommitCallback, Replica
from repro.sim.engine import Engine
from repro.substrate import RdmaParams, SharedStateTable, build_substrate


class LogReplica(Replica):
    """One replica of a remote-log protocol.

    ``log`` holds ``(payload, size)`` entries; ``commit_index`` is the
    leader's commit frontier and ``seen_commit`` the one an acceptor
    learnt from the leader's Commit-SST row.  A subclass supplies one
    poll in each role (``_lead`` / ``_follow``) and ``_leader_idle``.
    """

    def __init__(self, cluster: "LogCluster", node_id: int, cfg: Any):
        super().__init__(cluster, node_id, cfg, name=f"{cluster.name}{node_id}")
        self.term = 0
        self.is_leader = False
        self.log: list[tuple[Any, int]] = []
        self.commit_index = 0
        self.seen_commit = 0
        self._cbs: dict[int, CommitCallback] = {}
        self._last_commit_push = 0

    def on_poll(self) -> None:
        if self.is_leader:
            self._lead()
        else:
            self._follow()
        self._deliver()

    def _lead(self) -> None:
        raise NotImplementedError

    def _follow(self) -> None:
        raise NotImplementedError

    def _leader_idle(self) -> bool:
        """True iff the leader has nothing to replicate or commit."""
        raise NotImplementedError

    # --------------------------------------------------------- poll elision

    def park_ready(self) -> bool:
        """Idle iff a leader has nothing queued, drainable or to
        replicate, an acceptor's log region holds nothing unscanned, and
        nothing committed is undelivered.  New input rings the doorbell:
        log writes and SST rows arrive over QPs, completions ring the
        poster, and client_broadcast and leader hand-offs call
        request_poll."""
        c = self.cluster
        if self.is_leader:
            if (self.pending or len(c.fabric.nic(self.node_id).cq)
                    or not self._leader_idle()):
                return False
        elif c.log_inboxes[self.node_id]:
            return False
        limit = self.commit_index if self.is_leader else self.seen_commit
        return c.delivered.get(self.node_id, 0) >= limit

    # ---------------------------------------------------------------- leader

    def become_leader(self, term: int) -> None:
        self.is_leader = True
        self.term = term
        probe = self.engine.probe
        if probe is not None:
            probe.note(self.cluster, "leader", self.node_id, term=term)

    def _append_pending(self, cpu_ns: int) -> None:
        """Move queued client payloads into the local log, ``cpu_ns``
        each; the leader's own append is its acceptance."""
        probe = self.engine.probe
        while self.pending:
            payload, size, cb = self.pending.pop(0)
            if cb is not None:
                self._cbs[len(self.log)] = cb
            self.log.append((payload, size))
            self.cpu.charge(cpu_ns)
            if probe is not None:
                probe.note(self.cluster, "accept", self.node_id,
                           slot=len(self.log))
                probe.mark(payload, "propose", self.engine.now)

    def _push_commit_row(self) -> None:
        """Push ``(term, commit_index, now)`` once per
        ``commit_push_period_ns``: the commit frontier and heartbeat."""
        now = self.engine.now
        if now - self._last_commit_push >= self.cfg.commit_push_period_ns:
            self._last_commit_push = now
            self.cluster.commit_sst.set_and_push(
                self.node_id, (self.term, self.commit_index, now),
                earliest_ns=self.cpu.busy_until)

    # -------------------------------------------------------------- acceptor

    def _store(self, idx: int, payload: Any, size: int) -> None:
        """Accept an entry written at ``idx``, padding any gap below it
        with ``(None, 0)`` until the missing writes land."""
        probe = self.engine.probe
        if probe is not None:
            probe.mark(payload, "accept", self.engine.now)
        while len(self.log) < idx:
            self.log.append((None, 0))
        if idx < len(self.log):
            self.log[idx] = (payload, size)
        else:
            self.log.append((payload, size))

    # ---------------------------------------------------------------- common

    def _deliver(self) -> None:
        limit = self.commit_index if self.is_leader else self.seen_commit
        delivered = self.cluster.delivered.setdefault(self.node_id, 0)
        probe = self.engine.probe
        while delivered < limit:
            payload, _size = self.log[delivered]
            if probe is not None:
                # A None (gap) payload has no span: its mark is a miss.
                probe.note(self.cluster, "commit", self.node_id,
                           slot=delivered + 1)
                probe.mark(payload, "commit", self.engine.now)
            if payload is not None:
                self.cluster.record_delivery(self.node_id, payload)
            cb = self._cbs.pop(delivered, None)
            if cb is not None:
                self.engine.schedule_at(max(self.engine.now, self.cpu.busy_until),
                                        cb, delivered)
            delivered += 1
            self.cpu.charge(self.cfg.deliver_cpu_ns)
        self.cluster.delivered[self.node_id] = delivered


class LogCluster(BroadcastSystem):
    """A remote-log deployment over the RDMA substrate.

    Construction order: one log region per node (``log_regions``, whose
    deposits land in ``log_inboxes``), then the SSTs, then the
    ``node_class`` replicas, each the waker of its NIC.  ``leader`` is
    the node serving clients.
    """

    client_hop_ns = 1_100   # RDMA client transport
    node_class: type
    config_class: type
    commit_row_bytes = 24

    def __init__(self, engine: Engine, n: int, config: Any = None,
                 rdma_params: Optional[RdmaParams] = None, record_deliveries: bool = True):
        super().__init__(engine, n, record_deliveries)
        self.cfg = config or self.config_class()
        self.fabric = self.substrate = build_substrate(
            "rdma", engine, node_ids=self.node_ids, params=rdma_params)
        self.quorum = n // 2 + 1
        self.leader = 0
        self.delivered: dict[int, int] = {}
        # Inboxes model the written-but-not-yet-scanned log area.
        self.log_inboxes: dict[int, list] = {i: [] for i in self.node_ids}
        self.log_regions: dict[int, tuple] = {}
        for i in self.node_ids:
            self._register_log(i)
        self._build_ssts()
        self.nodes = {i: self.node_class(self, i, self.cfg) for i in self.node_ids}
        # Poll-elision doorbells: log writes, SST rows and completions
        # wake a parked replica.
        for i, nd in self.nodes.items():
            self.fabric.nic(i).waker = nd

    def _build_ssts(self) -> None:
        self.commit_sst = SharedStateTable(
            self.fabric, f"{self.name}.commit", self.node_ids,
            row_size_bytes=self.commit_row_bytes, initial=None)

    def _register_log(self, i: int) -> None:
        """(Re-)register node ``i``'s log region; a fresh registration
        revokes the rkeys handed out before."""
        region = self.fabric.register(
            i, f"{self.name}.log.{i}", 1 << 22,
            on_write=lambda key, value, size, i=i: self._log_deposit(i, key, value))
        self.log_regions[i] = (region, region.grant())

    def _log_deposit(self, i: int, key: Any, value: Any) -> None:
        self.log_inboxes[i].append((key, value))

    def _hand_off(self, old: Replica, new: Replica) -> None:
        """Make ``new`` the leader; queued client payloads follow."""
        new.pending.extend(old.pending)
        old.pending = []
        self.leader = new.node_id

    def leader_id(self) -> Optional[int]:
        nd = self.nodes[self.leader]
        return self.leader if (not nd.crashed and nd.is_leader) else None
