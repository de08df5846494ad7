"""APUS: leader-based Paxos over RDMA (§4.1, §5).

APUS accelerates DARE's design by writing log entries directly into the
acceptors' memory with one-sided writes (the leader holds exclusive
access to the remote logs) and by batching: each batch holds at most one
message per client, and acceptors acknowledge batches rather than using
RDMA completion queues.

The behaviour the paper's analysis keys on — and the reason APUS sits
between Acuerdo and the TCP systems in Fig. 8 — is the **single pending
batch**: its Paxos engine was designed for reordering networks and can
only process one complete batch at a time, so the leader cannot form
batch ``k+1`` until batch ``k`` is committed.  A delay on any message of
a batch therefore stalls the whole system, in contrast to
Acuerdo/Derecho, which exploit FIFO delivery to process partial batches.

The log store, delivery and wiring are the shared remote-log skeleton
(:mod:`repro.protocols.remotelog`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.protocols.remotelog import LogCluster, LogReplica
from repro.sim.engine import us
from repro.sim.process import ProcessConfig
from repro.substrate import SharedStateTable


@dataclass
class ApusConfig:
    """Cost knobs.  Per-message CPU is higher than Acuerdo's because
    every message runs its own consensus instance (ballot bookkeeping,
    instance table updates) — the §4.1 "separate consensus instance on
    every message" overhead."""

    batch_max: int = 8              # one message per client; few clients
    paxos_cpu_ns: int = 1_500       # leader: per-message instance setup
    accept_cpu_ns: int = 900        # acceptor: per-message validation
    deliver_cpu_ns: int = 200
    ack_push_period_ns: int = us(30)  # acceptors acknowledge periodically
    heartbeat_timeout_ns: int = us(80)
    state_transfer_ns_per_entry: int = 300  # new-leader log reconciliation
    process: ProcessConfig = field(default_factory=ProcessConfig)


@dataclass
class _AckRow:
    """Acceptor state row pushed back to the leader."""

    acked: int      # log entries accepted up to (exclusive)
    term: int
    hb: int


class ApusNode(LogReplica):
    """One APUS replica (leader or acceptor).

    The leader's commit callbacks fire when its batch commits, so none
    are left for the shared delivery loop to run."""

    def __init__(self, cluster: "ApusCluster", node_id: int, cfg: ApusConfig):
        super().__init__(cluster, node_id, cfg)
        self.batch_in_flight: Optional[tuple[int, int]] = None  # (start, end)
        self._hb = 0
        self._last_ack_push = 0

    def _leader_idle(self) -> bool:
        """The APUS leader pushes its commit row + heartbeat on *every*
        poll, so its loop is never idle and never parks."""
        return False

    def park_deadline(self) -> Optional[int]:
        # Next periodic acknowledgment push (>= comparison).
        return self._last_ack_push + self.cfg.ack_push_period_ns

    # ---------------------------------------------------------------- leader

    def _lead(self) -> None:
        c = self.cluster
        # Try to finish the in-flight batch first.
        if self.batch_in_flight is not None:
            start, end = self.batch_in_flight
            acked = 1  # self
            for p in c.node_ids:
                if p == self.node_id:
                    continue
                row: _AckRow = c.ack_sst.read(self.node_id, p)
                if row is not None and row.term == self.term and row.acked >= end:
                    acked += 1
            if acked >= c.quorum:
                self.commit_index = end
                for i in range(start, end):
                    cb = self._cbs.pop(i, None)
                    if cb is not None:
                        self.engine.schedule_at(
                            max(self.engine.now, self.cpu.busy_until), cb, i)
                self.batch_in_flight = None
                self.engine.trace.count("apus.batch_commit")
            else:
                return  # single pending batch: nothing else can happen
        # Form the next batch (one per client up to batch_max).
        if self.pending and self.batch_in_flight is None:
            take = min(len(self.pending), self.cfg.batch_max)
            start = len(self.log)
            size_total = 0
            entries = []
            probe = self.engine.probe
            for _ in range(take):
                payload, size, cb = self.pending.pop(0)
                if cb is not None:
                    self._cbs[len(self.log)] = cb
                self.log.append(0, payload, size)
                entries.append((payload, size))
                size_total += size
                self.cpu.charge(self.cfg.paxos_cpu_ns)
                if probe is not None:
                    probe.mark(payload, "propose", self.engine.now)
            end = len(self.log)
            self.batch_in_flight = (start, end)
            batch = tuple(entries)
            if probe is not None:
                # The leader's own log append counts toward the batch's
                # quorum (the "acked = 1  # self" above).
                probe.note(self.cluster, "accept", self.node_id, slot=end)
                # The batch tuple is the wire carrier; substrate marks
                # (nic_tx/wire/deposit) attribute to its lead message.
                probe.bind(batch, entries[0][0])
            # One-sided write of the batch into each acceptor's log,
            # posted once the per-instance CPU work rings the doorbell.
            for p in c.node_ids:
                if p == self.node_id:
                    continue
                region, rkey = c.log_regions[p]
                c.fabric.write(self.node_id, p, region, rkey,
                               (self.term, start), batch,
                               size_total + 16 * take,
                               wr_id=("apus", start),
                               earliest_ns=self.cpu.busy_until)
            self.engine.trace.count("apus.batch_send")
        # Piggyback/push commit index + heartbeat.
        self._hb += 1
        c.commit_sst.set_and_push(self.node_id, (self.term, self.commit_index, self._hb))

    # -------------------------------------------------------------- acceptor

    def _follow(self) -> None:
        c = self.cluster
        inbox = c.log_inboxes[self.node_id]
        probe = self.engine.probe
        while inbox:
            (term, start), entries = inbox.pop(0)
            if term < self.term:
                continue
            if term > self.term:
                self.term = term
            if probe is not None and start < len(self.log):
                # A new leader's first batch overwrites the stale tail.
                probe.note(self.cluster, "accept_trunc", self.node_id,
                           slot=start)
            # Exclusive leader access: writes land at the stated offset.
            self.log.truncate(start)
            for payload, size in entries:
                self.log.append(0, payload, size)
                self.cpu.charge(self.cfg.accept_cpu_ns)
                if probe is not None:
                    probe.mark(payload, "accept", self.engine.now)
            if probe is not None:
                # Accept at the CPU drain: APUS leaders count periodic
                # acks derived from this frontier, not NIC completions.
                probe.note(self.cluster, "accept", self.node_id,
                           slot=len(self.log))
        row = c.commit_sst.read(self.node_id, c.leader)
        if row is not None:
            term, cidx, _hb = row
            if term == self.term and cidx > self.seen_commit:
                self.seen_commit = min(cidx, len(self.log))
        now = self.engine.now
        # APUS acceptors acknowledge *periodically* — their batched-ack
        # cadence, not RDMA completions, is the acknowledgment path (§5).
        if now - self._last_ack_push >= self.cfg.ack_push_period_ns:
            self._last_ack_push = now
            self._hb += 1
            c.ack_sst.set_and_push(self.node_id,
                                   _AckRow(len(self.log), self.term, self._hb),
                                   targets=[c.leader],
                                   earliest_ns=self.cpu.busy_until)


class ApusCluster(LogCluster):
    """An APUS deployment with a fixed initial leader (node 0).

    Fail-over uses a Raft-style term bump with explicit state transfer:
    the new leader must pull log state from a quorum before serving —
    the round trip Acuerdo's up-to-date election avoids (§3.3)."""

    name = "apus"
    node_class = ApusNode
    config_class = ApusConfig
    commit_row_bytes = 20

    def _build_ssts(self) -> None:
        self.ack_sst = SharedStateTable(self.fabric, "apus.ack", self.node_ids,
                                        row_size_bytes=20, initial=None)
        super()._build_ssts()

    def start(self) -> None:
        self.nodes[self.leader].become_leader(term=0)
        super().start()
        self.engine.schedule(self.cfg.heartbeat_timeout_ns, self._watchdog)

    def _watchdog(self) -> None:
        """Cluster-level failure detector driving APUS's (simplified)
        Paxos-based election: on leader death the next live node runs a
        term bump plus a state-transfer round before serving."""
        if self.nodes[self.leader].crashed:
            live = [i for i in self.node_ids if not self.nodes[i].crashed]
            if len(live) >= self.quorum:
                nd = self.nodes[min(live)]
                # State transfer: adopt the longest log among live nodes
                # (charged per entry — the cost Acuerdo's election avoids).
                donor = max(live, key=lambda i: len(self.nodes[i].log))
                transfer = self.nodes[donor].log[len(nd.log):]
                nd.log.extend(transfer)
                term = max(self.nodes[i].term for i in live) + 1
                nd.commit_index = max(self.nodes[i].seen_commit for i in live)
                nd.cpu.charge(self.cfg.state_transfer_ns_per_entry * max(1, len(transfer)))
                nd.become_leader(term)
                probe = self.engine.probe
                if probe is not None:
                    # The adopted donor log raises the new leader's
                    # accepted frontier before it serves.
                    probe.note(self, "accept", nd.node_id, slot=len(nd.log))
                nd.batch_in_flight = None
                self._hand_off(self.nodes[self.leader], nd)
                self.engine.trace.count("apus.failover")
                # Promotion happened outside nd's poll loop; wake it so
                # the (never-parking) leader cadence starts at its next tick.
                nd.request_poll()
        self.engine.schedule(self.cfg.heartbeat_timeout_ns, self._watchdog)
