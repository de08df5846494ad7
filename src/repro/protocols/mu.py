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

The log store, delivery, commit-row push and wiring are the shared
remote-log skeleton (:mod:`repro.protocols.remotelog`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.protocols.remotelog import LogCluster, LogReplica
from repro.sim.engine import ms, us
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


class MuNode(LogReplica):
    """One Mu replica."""

    def __init__(self, cluster: "MuCluster", node_id: int, cfg: MuConfig):
        super().__init__(cluster, node_id, cfg)
        self._acks: dict[int, set[int]] = {}     # uncommitted idx -> followers acked
        self._next_write: dict[int, int] = {}    # follower -> next entry to write
        self._last_leader_sign = 0

    def _leader_idle(self) -> bool:
        nodes = self.cluster.nodes
        return not any(nxt < len(self.log) and not nodes[p].crashed
                       and nxt - self.commit_index < self.cfg.max_inflight
                       for p, nxt in self._next_write.items())

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
        super().become_leader(term)
        peers = [p for p in self.cluster.node_ids if p != self.node_id]
        self._next_write = {p: len(self.log) for p in peers}
        self._acks = {}

    def _lead(self) -> None:
        self._drain_completions()
        self._replicate()
        self._push_commit_row()

    def _replicate(self) -> None:
        self._append_pending(self.cfg.entry_cpu_ns)
        probe = self.engine.probe
        for p, nxt in self._next_write.items():
            if self.cluster.nodes[p].crashed:
                continue
            while nxt < len(self.log) and nxt - self.commit_index < self.cfg.max_inflight:
                payload, size = self.log.payload(nxt), self.log.size(nxt)
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
            if idx < self.commit_index:
                continue   # late completion: the entry's tally went at commit
            acks = self._acks.setdefault(idx, set())
            acks.add(p)
            # Quorum = leader (has it locally) + enough completions.
            if len(acks) + 1 >= self.cluster.quorum:
                for i in range(self.commit_index, idx + 1):
                    self._acks.pop(i, None)
                self.commit_index = idx + 1

    # -------------------------------------------------------------- acceptor

    def _follow(self) -> None:
        c = self.cluster
        inbox = c.log_inboxes[self.node_id]
        while inbox:
            (term, idx), (payload, size) = inbox.pop(0)
            if term < self.term:
                continue
            self.term = max(self.term, term)
            self._store(idx, payload, size)
        row = c.commit_sst.read(self.node_id, c.leader)
        if row is not None:
            term, cidx, ts = row
            if term >= self.term and cidx > self.seen_commit:
                self.seen_commit = min(cidx, len(self.log))
            self._last_leader_sign = max(self._last_leader_sign, ts)
        if self.engine.now - self._last_leader_sign > self.cfg.heartbeat_timeout_ns:
            c.request_failover(self.node_id)
            self._last_leader_sign = self.engine.now  # rate-limit requests


class MuCluster(LogCluster):
    """A Mu deployment: fastest normal path, slowest fail-over."""

    name = "mu"
    node_class = MuNode
    config_class = MuConfig

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._failover_in_progress = False

    def _log_deposit(self, i: int, key: Any, value: Any) -> None:
        super()._log_deposit(i, key, value)
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
        self._hand_off(self.nodes[self.leader], nd)
        nd.seen_commit = max(nd.seen_commit, nd.commit_index)
        nd.commit_index = max(nd.commit_index, nd.seen_commit, len(nd.log))
        nd.become_leader(term=self._next_term())
        self._failover_in_progress = False
        self.engine.trace.count("mu.failover_done")
        # The hand-off mutated the new leader outside its poll loop.
        nd.request_poll()

    def _next_term(self) -> int:
        return max(n.term for n in self.nodes.values()) + 1

    # ------------------------------------------------------------- interface

    def leader_id(self) -> Optional[int]:
        return None if self._failover_in_progress else super().leader_id()
