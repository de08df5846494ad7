"""DARE: state machine replication on RDMA — the §5 ancestor baseline.

DARE (Poke & Hoefler, HPDC'15) pioneered RDMA atomic broadcast: leaders
hold exclusive write access to acceptor logs (acceptors close their
other connections and keep their CPUs passive), and replication is
driven entirely by the leader's RDMA completions.

The paper's §5 analysis pins DARE's cost on **fine-grained
completions**: "in order to send a message to a remote acceptor,
leaders must first write to the log, ensure the write is completed,
then mark the entry as valid" — two *sequential, signaled* writes per
entry per follower, each waiting for its completion before the next
step, in contrast to Acuerdo's fire-and-forget pipeline with selective
signaling.  We model exactly that chain.

For leader election, DARE "requires every acceptor to vote at most once
per election round.  Consequently, DARE can deadlock when several
acceptors fall into an election but split their vote among several
valid contenders; this split vote deadlock will result in another
expensive timeout and election round.  To deal with this ... DARE uses
randomized timeouts", i.e. Raft-style elections with slack timeouts —
modelled as such.

DARE is not in the paper's Fig. 8 (APUS superseded it); this module
exists for the extension benchmark (`test_bench_extension_dare_mu.py`)
that places the whole RDMA lineage on one axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.protocols.base import BroadcastSystem, CommitCallback, Replica
from repro.substrate import RdmaParams, SharedStateTable, build_substrate
from repro.sim.engine import Engine, us
from repro.sim.process import ProcessConfig


@dataclass
class DareConfig:
    """DARE cost/behaviour knobs."""

    entry_cpu_ns: int = 600            # leader per-entry bookkeeping
    deliver_cpu_ns: int = 200
    commit_push_period_ns: int = us(4)
    heartbeat_timeout_min_ns: int = us(600)   # randomized, slack (§5)
    heartbeat_timeout_max_ns: int = us(1_400)
    heartbeat_period_ns: int = us(100)
    max_inflight: int = 64             # pipelined entries per follower chain
    process: ProcessConfig = field(default_factory=ProcessConfig)


class DareNode(Replica):
    """One DARE replica.

    Acceptors are CPU-passive for replication: their logs fill via
    one-sided writes and they only wake to deliver and to monitor the
    leader.  All replication control runs at the leader, driven by its
    completion queue.
    """

    def __init__(self, cluster: "DareCluster", node_id: int, cfg: DareConfig):
        super().__init__(cluster, node_id, cfg, name=f"dare{node_id}")
        self.term = 0
        self.is_leader = False
        self.log: list[tuple[Any, int]] = []
        self.commit_index = 0
        self.seen_commit = 0
        self._cbs: dict[int, CommitCallback] = {}
        # Leader-side replication chains: per follower, the next entry to
        # write and the phase of the in-flight step.
        self._chain_next: dict[int, int] = {}      # follower -> next entry idx
        self._chain_phase: dict[int, tuple] = {}   # follower -> ("entry"|"valid", idx)
        self._acked: dict[int, int] = {}           # follower -> entries valid upto
        self._votes: set[int] = set()
        self._rng = cluster.engine.rng(f"dare.{node_id}")
        self._deadline = 0
        self._reset_timer()
        self._last_hb_sent = 0
        self._last_commit_push = 0

    # ------------------------------------------------------------------ util

    def _reset_timer(self) -> None:
        span = self.cfg.heartbeat_timeout_max_ns - self.cfg.heartbeat_timeout_min_ns
        self._deadline = (self.engine.now + self.cfg.heartbeat_timeout_min_ns
                          + self._rng.randrange(max(1, span)))

    # ------------------------------------------------------------------ poll

    def on_poll(self) -> None:
        if self.is_leader:
            self._drain_completions()
            self._advance_chains()
            self._advance_commit()
            self._push_commit_row()
        else:
            self._acceptor_step()
            if self.engine.now >= self._deadline:
                self.cluster.run_election(self.node_id)
                self._reset_timer()
        self._deliver()

    # --------------------------------------------------------- poll elision

    def park_ready(self) -> bool:
        """Idle iff no chain can advance, nothing is drainable and no
        commit is deliverable.  Log/commit-row deposits and completions
        ring the doorbell; election hand-offs call request_poll."""
        if self.is_leader:
            if self.pending or len(self.cluster.fabric.nic(self.node_id).cq):
                return False
            log_len = len(self.log)
            nodes = self.cluster.nodes
            for p, nxt in self._chain_next.items():
                if (p not in self._chain_phase and not nodes[p].crashed
                        and nxt < log_len
                        and nxt - self._acked.get(p, 0) < self.cfg.max_inflight):
                    return False
            if self._acked:
                acks = sorted([log_len] + list(self._acked.values()), reverse=True)
                if acks[self.cluster.quorum - 1] > self.commit_index:
                    return False
        elif self.cluster.log_inboxes[self.node_id]:
            return False
        limit = self.commit_index if self.is_leader else self.seen_commit
        if self.cluster.delivered.get(self.node_id, 0) < limit:
            return False
        return True

    def park_deadline(self) -> Optional[int]:
        if self.is_leader:
            return self._last_commit_push + self.cfg.commit_push_period_ns
        # Randomized election timeout: fires at the first tick >= _deadline.
        return self._deadline

    # ---------------------------------------------------------------- leader

    def become_leader(self, term: int) -> None:
        self.is_leader = True
        self.term = term
        probe = self.engine.probe
        if probe is not None:
            probe.note(self.cluster, "leader", self.node_id, term=term)
        peers = [p for p in self.cluster.node_ids if p != self.node_id]
        self._chain_next = {p: min(self._acked.get(p, 0), len(self.log)) for p in peers}
        self._chain_phase = {}
        self._acked = {p: self._chain_next[p] for p in peers}
        self.engine.trace.count("dare.elected")

    def _advance_chains(self) -> None:
        probe = self.engine.probe
        # Pull pending client payloads into the local log first.
        while self.pending:
            payload, size, cb = self.pending.pop(0)
            if cb is not None:
                self._cbs[len(self.log)] = cb
            self.log.append((payload, size))
            self.cpu.charge(self.cfg.entry_cpu_ns)
            if probe is not None:
                # The leader's local append counts toward the quorum
                # (the len(self.log) term in _advance_commit).
                probe.note(self.cluster, "accept", self.node_id,
                           slot=len(self.log))
                probe.mark(payload, "propose", self.engine.now)
        # Per-follower chains: entry write -> completion -> valid write
        # -> completion -> next entry.  The fine-grained completion
        # discipline of §5, pipelined at most max_inflight deep.
        for p, nxt in self._chain_next.items():
            if p in self._chain_phase:
                continue  # a step is already in flight to this follower
            if self.cluster.nodes[p].crashed:
                continue
            if nxt >= len(self.log) or nxt - self._acked.get(p, 0) >= self.cfg.max_inflight:
                continue
            payload, size = self.log[nxt]
            region, rkey = self.cluster.log_regions[p]
            self._chain_phase[p] = ("entry", nxt)
            val = (payload, size)
            if probe is not None:
                # Each entry write is a wire carrier for its payload.
                probe.bind(val, payload)
            self.cluster.fabric.write(
                self.node_id, p, region, rkey, ("entry", self.term, nxt),
                val, size, signaled=True,
                wr_id=("dare-entry", p, nxt), earliest_ns=self.cpu.busy_until)

    def _drain_completions(self) -> None:
        for comp in self.cluster.fabric.nic(self.node_id).cq.drain():
            kind = comp.wr_id[0] if isinstance(comp.wr_id, tuple) else None
            if kind == "dare-entry":
                _, p, idx = comp.wr_id
                # Entry is durable at the follower: mark it valid with a
                # second signaled write.
                region, rkey = self.cluster.log_regions[p]
                self._chain_phase[p] = ("valid", idx)
                self.cluster.fabric.write(
                    self.node_id, p, region, rkey, ("valid", self.term, idx),
                    None, 8, signaled=True, wr_id=("dare-valid", p, idx),
                    earliest_ns=self.cpu.busy_until)
            elif kind == "dare-valid":
                _, p, idx = comp.wr_id
                self._acked[p] = max(self._acked.get(p, 0), idx + 1)
                self._chain_phase.pop(p, None)
                self._chain_next[p] = idx + 1

    def _advance_commit(self) -> None:
        if not self._acked:
            return
        acks = sorted([len(self.log)] + list(self._acked.values()), reverse=True)
        majority = acks[self.cluster.quorum - 1]
        if majority > self.commit_index:
            self.commit_index = majority

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
            key, value = inbox.pop(0)
            kind, term, idx = key
            if term < self.term:
                continue
            self.term = max(self.term, term)
            if kind == "entry":
                payload, size = value
                if probe is not None:
                    probe.mark(payload, "accept", self.engine.now)
                while len(self.log) < idx:
                    self.log.append((None, 0))
                if idx < len(self.log):
                    self.log[idx] = (payload, size)
                else:
                    self.log.append((payload, size))
            # "valid" markers need no acceptor CPU: validity is checked
            # when delivering.
        row = self.cluster.commit_sst.read(self.node_id, self.cluster.leader)
        if row is not None:
            term, cidx, _ts = row
            if term >= self.term and cidx > self.seen_commit:
                self.seen_commit = min(cidx, len(self.log))
                self._reset_timer()

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


class DareCluster(BroadcastSystem):
    """A DARE deployment.

    Elections use randomized timeouts with at-most-one-vote-per-round
    acceptors, so split votes force whole new rounds (§5) — implemented
    in :meth:`run_election`, which the timing-out acceptor triggers.
    """

    name = "dare"
    client_hop_ns = 1_100

    def __init__(self, engine: Engine, n: int, config: Optional[DareConfig] = None,
                 rdma_params: Optional[RdmaParams] = None, record_deliveries: bool = True):
        super().__init__(engine, n, record_deliveries)
        self.cfg = config or DareConfig()
        self.fabric = self.substrate = build_substrate(
            "rdma", engine, node_ids=self.node_ids, params=rdma_params)
        self.quorum = n // 2 + 1
        self.leader = 0
        self.delivered: dict[int, int] = {}
        self.log_inboxes: dict[int, list] = {i: [] for i in self.node_ids}
        self.log_regions: dict[int, tuple] = {}
        for i in self.node_ids:
            region = self.fabric.register(
                i, f"dare.log.{i}", 1 << 22,
                on_write=lambda key, value, size, i=i: self._log_deposit(i, key, value))
            self.log_regions[i] = (region, region.grant())
        self.commit_sst = SharedStateTable(self.fabric, "dare.commit", self.node_ids,
                                           row_size_bytes=24, initial=None)
        self.nodes: dict[int, DareNode] = {i: DareNode(self, i, self.cfg)
                                           for i in self.node_ids}
        # Poll-elision doorbells: log and commit-SST deposits (and the
        # leader's completions) wake a parked replica.
        for i, nd in self.nodes.items():
            self.fabric.nic(i).waker = nd
        self._election_term = 0
        self._round_votes: dict[int, int] = {}   # term -> votes for candidate
        self._round_voted: dict[int, set] = {}   # term -> acceptors that voted

    def _log_deposit(self, i: int, key: Any, value: Any) -> None:
        self.log_inboxes[i].append((key, value))
        if key[0] == "valid":
            probe = self.engine.probe
            if probe is not None:
                # The entry became durable-and-valid at node i; the
                # leader's commit counts the completion of exactly this
                # write, ahead of any follower CPU drain.
                probe.note(self, "accept", i, slot=key[2] + 1)

    def start(self) -> None:
        self.nodes[0].become_leader(term=1)
        self._election_term = 1
        super().start()

    # -------------------------------------------------------------- election

    def run_election(self, candidate: int) -> None:
        """One DARE election round started by a timing-out acceptor.

        Every live acceptor votes at most once per term, for the first
        candidate that reaches it; concurrent candidates split the vote
        and the round fails, forcing a new randomized timeout (§5)."""
        if self.nodes[candidate].crashed:
            return
        term = self._election_term + 1
        voted = self._round_voted.setdefault(term, set())
        votes = 0
        for p in self.node_ids:
            nd = self.nodes[p]
            if nd.crashed or p in voted:
                continue
            # Vote only for candidates whose log is at least as long.
            if len(self.nodes[candidate].log) >= len(nd.log) or p == candidate:
                voted.add(p)
                votes += 1
        self.engine.trace.count("dare.election_rounds")
        if votes >= self.quorum:
            self._election_term = term
            old = self.nodes[self.leader]
            if old.is_leader:
                old.is_leader = False
            self.leader = candidate
            nd = self.nodes[candidate]
            nd.pending.extend(old.pending)
            old.pending = []
            nd.become_leader(term)
            # Both role changes happened outside the victims' poll loops:
            # the deposed leader must resume acceptor-timeout polling and
            # the candidate (if not the caller) its replication chains.
            old.request_poll()
            nd.request_poll()
        else:
            self.engine.trace.count("dare.split_vote")

    # ------------------------------------------------------------- interface

    def leader_id(self) -> Optional[int]:
        nd = self.nodes[self.leader]
        return self.leader if (not nd.crashed and nd.is_leader) else None
