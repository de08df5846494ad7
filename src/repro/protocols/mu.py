"""Mu: microsecond consensus via completion-as-acknowledgment (§5).

Mu (Aguilera et al., OSDI'20) is the most recent related system the
paper discusses — and the one experiment its authors could not run:
"Mu's software is both tuned and specialized for an Infiniband network
and was incapable of running on our RoCE cluster."  The simulation has
no such constraint, so this module reproduces Mu's mechanism and the
extension benchmark puts it on the same axis as Acuerdo:

- **Completion as the acknowledgment**: the leader writes a log entry
  into each follower's memory and treats the RDMA *completion* (the
  NIC-level transport ACK) as that follower's acceptance — follower
  CPUs never wake to acknowledge (§5: "Mu does not require follower
  CPUs to wake up to acknowledge messages").  Commit therefore takes a
  single signaled write round to a quorum: the fastest possible path,
  and Mu's published sub-2 µs consensus numbers follow from it.
- **Exclusive connections**: for the completion to imply acceptance,
  the leader must hold the *only* open connection into each follower's
  log region.  Elections consequently require closing and re-opening
  RDMA connections (re-registering memory), which makes fail-over
  dramatically more expensive than Acuerdo's — the trade-off the
  extension benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.protocols.base import BroadcastSystem, CommitCallback, Replica
from repro.substrate import RdmaParams, SharedStateTable, build_substrate
from repro.sim.engine import Engine, ms, us
from repro.sim.process import ProcessConfig


@dataclass
class MuConfig:
    """Mu cost/behaviour knobs."""

    entry_cpu_ns: int = 350              # lean leader path (Mu is tiny)
    deliver_cpu_ns: int = 150
    commit_push_period_ns: int = us(4)
    heartbeat_timeout_ns: int = us(600)
    # Fail-over must tear down and re-establish exclusive connections:
    # close QPs, re-register memory, exchange rkeys (§5/§2.1) — a
    # millisecond-class operation even on fast networks.
    reconnect_ns: int = ms(2)
    max_inflight: int = 256
    process: ProcessConfig = field(default_factory=ProcessConfig)


class MuNode(Replica):
    """One Mu replica."""

    def __init__(self, cluster: "MuCluster", node_id: int, cfg: MuConfig):
        super().__init__(cluster, node_id, cfg, name=f"mu{node_id}")
        self.term = 0
        self.is_leader = False
        self.log: list[tuple[Any, int]] = []
        self.commit_index = 0
        self.seen_commit = 0
        self._cbs: dict[int, CommitCallback] = {}
        self._acks: dict[int, set[int]] = {}     # entry idx -> followers acked
        self._next_write: dict[int, int] = {}    # follower -> next entry to write
        self._last_commit_push = 0
        self._last_leader_sign = 0

    # ------------------------------------------------------------------ poll

    def on_poll(self) -> None:
        if self.is_leader:
            self._drain_completions()
            self._replicate()
            self._push_commit_row()
        else:
            self._acceptor_step()
            if self.engine.now - self._last_leader_sign > self.cfg.heartbeat_timeout_ns:
                self.cluster.request_failover(self.node_id)
                self._last_leader_sign = self.engine.now  # rate-limit requests
        self._deliver()

    # --------------------------------------------------------- poll elision

    def park_ready(self) -> bool:
        """Idle iff nothing to replicate, drain or deliver.  New input
        rings the doorbell: log writes and commit-row pushes arrive over
        QPs, completions ring the poster, and client_broadcast /
        fail-over hand-offs call request_poll."""
        if self.is_leader:
            if self.pending or len(self.cluster.fabric.nic(self.node_id).cq):
                return False
            log_len = len(self.log)
            nodes = self.cluster.nodes
            for p, nxt in self._next_write.items():
                if (nxt < log_len and not nodes[p].crashed
                        and nxt - self.commit_index < self.cfg.max_inflight):
                    return False
        elif self.cluster.log_inboxes[self.node_id]:
            return False
        limit = self.commit_index if self.is_leader else self.seen_commit
        if self.cluster.delivered.get(self.node_id, 0) < limit:
            return False
        return True

    def park_deadline(self) -> Optional[int]:
        if self.is_leader:
            # Next commit-row heartbeat push (>= comparison: due exactly
            # at the period boundary).
            return self._last_commit_push + self.cfg.commit_push_period_ns
        # Next possible leader-timeout expiry (strict >: first instant
        # the detector can fire is one ns past the window).
        return self._last_leader_sign + self.cfg.heartbeat_timeout_ns + 1

    # ---------------------------------------------------------------- leader

    def become_leader(self, term: int) -> None:
        self.is_leader = True
        self.term = term
        probe = self.engine.probe
        if probe is not None:
            probe.note(self.cluster, "leader", self.node_id, term=term)
        peers = [p for p in self.cluster.node_ids if p != self.node_id]
        self._next_write = {p: len(self.log) for p in peers}
        self._acks = {}

    def _replicate(self) -> None:
        probe = self.engine.probe
        while self.pending:
            payload, size, cb = self.pending.pop(0)
            if cb is not None:
                self._cbs[len(self.log)] = cb
            self.log.append((payload, size))
            self.cpu.charge(self.cfg.entry_cpu_ns)
            if probe is not None:
                # The leader's local append is its own acceptance (the
                # "+ 1" in the quorum count below).
                probe.note(self.cluster, "accept", self.node_id,
                           slot=len(self.log))
                probe.mark(payload, "propose", self.engine.now)
        for p, nxt in self._next_write.items():
            if self.cluster.nodes[p].crashed:
                continue
            while nxt < len(self.log) and nxt - self.commit_index < self.cfg.max_inflight:
                payload, size = self.log[nxt]
                region, rkey = self.cluster.log_regions[p]
                val = (payload, size)
                if probe is not None:
                    probe.bind(val, payload)
                # ONE signaled write; its completion IS the acceptance.
                self.cluster.fabric.write(
                    self.node_id, p, region, rkey, (self.term, nxt),
                    val, size, signaled=True,
                    wr_id=("mu", p, nxt), earliest_ns=self.cpu.busy_until)
                nxt += 1
            self._next_write[p] = nxt

    def _drain_completions(self) -> None:
        for comp in self.cluster.fabric.nic(self.node_id).cq.drain():
            if not (isinstance(comp.wr_id, tuple) and comp.wr_id[0] == "mu"):
                continue
            _, p, idx = comp.wr_id
            acks = self._acks.setdefault(idx, set())
            acks.add(p)
            # Quorum = leader (has it locally) + enough completions.
            if len(acks) + 1 >= self.cluster.quorum and idx >= self.commit_index:
                self.commit_index = max(self.commit_index, idx + 1)

    def _push_commit_row(self) -> None:
        now = self.engine.now
        if now - self._last_commit_push >= self.cfg.commit_push_period_ns:
            self._last_commit_push = now
            self.cluster.commit_sst.set_and_push(
                self.node_id, (self.term, self.commit_index, now),
                earliest_ns=self.cpu.busy_until)

    # -------------------------------------------------------------- acceptor

    def _acceptor_step(self) -> None:
        inbox = self.cluster.log_inboxes[self.node_id]
        probe = self.engine.probe
        while inbox:
            (term, idx), value = inbox.pop(0)
            if term < self.term:
                continue
            self.term = max(self.term, term)
            payload, size = value
            if probe is not None:
                probe.mark(payload, "accept", self.engine.now)
            while len(self.log) < idx:
                self.log.append((None, 0))
            if idx < len(self.log):
                self.log[idx] = (payload, size)
            else:
                self.log.append((payload, size))
        row = self.cluster.commit_sst.read(self.node_id, self.cluster.leader)
        if row is not None:
            term, cidx, ts = row
            if term >= self.term and cidx > self.seen_commit:
                self.seen_commit = min(cidx, len(self.log))
            self._last_leader_sign = max(self._last_leader_sign, ts)

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


class MuCluster(BroadcastSystem):
    """A Mu deployment: fastest normal path, slowest fail-over."""

    name = "mu"
    client_hop_ns = 1_100

    def __init__(self, engine: Engine, n: int, config: Optional[MuConfig] = None,
                 rdma_params: Optional[RdmaParams] = None, record_deliveries: bool = True):
        super().__init__(engine, n, record_deliveries)
        self.cfg = config or MuConfig()
        self.fabric = self.substrate = build_substrate(
            "rdma", engine, node_ids=self.node_ids, params=rdma_params)
        self.quorum = n // 2 + 1
        self.leader = 0
        self.delivered: dict[int, int] = {}
        self.log_inboxes: dict[int, list] = {i: [] for i in self.node_ids}
        self.log_regions: dict[int, tuple] = {}
        for i in self.node_ids:
            self._register_log(i)
        self.commit_sst = SharedStateTable(self.fabric, "mu.commit", self.node_ids,
                                           row_size_bytes=24, initial=None)
        self.nodes: dict[int, MuNode] = {i: MuNode(self, i, self.cfg)
                                         for i in self.node_ids}
        # Poll-elision doorbells: log-region and commit-SST deposits (and
        # CQ completions) wake a parked replica.
        for i, nd in self.nodes.items():
            self.fabric.nic(i).waker = nd
        self._failover_in_progress = False

    def _register_log(self, i: int) -> None:
        region = self.fabric.register(
            i, f"mu.log.{i}", 1 << 22,
            on_write=lambda key, value, size, i=i: self._log_deposit(i, key, value))
        self.log_regions[i] = (region, region.grant())

    def _log_deposit(self, i: int, key: Any, value: Any) -> None:
        self.log_inboxes[i].append((key, value))
        probe = self.engine.probe
        if probe is not None:
            # Completion-as-acknowledgment: the leader treats the NIC
            # completion of this deposit as node i's acceptance, so the
            # accept event belongs here — the follower's CPU drain can
            # run after the leader has already committed.
            probe.note(self, "accept", i, slot=key[1] + 1)

    def start(self) -> None:
        self.nodes[0].become_leader(term=1)
        super().start()

    # -------------------------------------------------------------- failover

    def request_failover(self, requester: int) -> None:
        """Followers that lose the leader trigger reconnection-based
        fail-over: every follower closes its exclusive connection,
        re-registers its log for the new leader, and only then can the
        new term start (§5's close-and-reopen requirement)."""
        if self._failover_in_progress:
            return
        old = self.nodes[self.leader]
        if not old.crashed and old.is_leader:
            return  # leader fine; spurious timeout
        live = [i for i in self.node_ids if not self.nodes[i].crashed]
        if len(live) < self.quorum:
            return
        self._failover_in_progress = True
        new = max(live, key=lambda i: len(self.nodes[i].log))
        self.engine.trace.count("mu.failover_started")
        # Re-registration revokes old rkeys; in-flight old-leader writes
        # will be rejected at delivery, which is exactly Mu's guarantee.
        self.engine.schedule(self.cfg.reconnect_ns, self._finish_failover, new)

    def _finish_failover(self, new: int) -> None:
        # Every live log is re-registered: old rkeys die, and only the
        # new leader is handed the fresh ones — exclusivity restored.
        for i in self.node_ids:
            if not self.nodes[i].crashed:
                self._register_log(i)
        nd = self.nodes[new]
        old = self.nodes[self.leader]
        nd.pending.extend(old.pending)
        old.pending = []
        nd.seen_commit = max(nd.seen_commit, nd.commit_index)
        nd.commit_index = max(nd.commit_index, nd.seen_commit, len(nd.log))
        self.leader = new
        nd.become_leader(term=self._next_term())
        self._failover_in_progress = False
        self.engine.trace.count("mu.failover_done")
        # The hand-off mutated the new leader outside its poll loop.
        nd.request_poll()

    def _next_term(self) -> int:
        return max(n.term for n in self.nodes.values()) + 1

    # ------------------------------------------------------------- interface

    def leader_id(self) -> Optional[int]:
        nd = self.nodes[self.leader]
        if nd.crashed or not nd.is_leader or self._failover_in_progress:
            return None
        return self.leader
