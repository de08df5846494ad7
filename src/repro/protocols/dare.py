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
that places the whole RDMA lineage on one axis.  The log store,
delivery, commit-row push and wiring are the shared remote-log skeleton
(:mod:`repro.protocols.remotelog`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.protocols.remotelog import LogCluster, LogReplica
from repro.sim.engine import us
from repro.sim.process import ProcessConfig


@dataclass
class DareConfig:
    """DARE cost/behaviour knobs."""

    entry_cpu_ns: int = 600            # leader per-entry bookkeeping
    deliver_cpu_ns: int = 200
    commit_push_period_ns: int = us(4)
    heartbeat_timeout_min_ns: int = us(600)   # randomized, slack (§5)
    heartbeat_timeout_max_ns: int = us(1_400)
    max_inflight: int = 64             # pipelined entries per follower chain
    process: ProcessConfig = field(default_factory=ProcessConfig)


class DareNode(LogReplica):
    """One DARE replica.

    Acceptors are CPU-passive for replication: their logs fill via
    one-sided writes and they only wake to deliver and to monitor the
    leader.  All replication control runs at the leader, driven by its
    completion queue.
    """

    def __init__(self, cluster: "DareCluster", node_id: int, cfg: DareConfig):
        super().__init__(cluster, node_id, cfg)
        # Leader-side replication chains: per follower, the next entry to
        # write and the phase of the in-flight step.
        self._chain_next: dict[int, int] = {}      # follower -> next entry idx
        self._chain_phase: dict[int, tuple] = {}   # follower -> ("entry"|"valid", idx)
        self._acked: dict[int, int] = {}           # follower -> entries valid upto
        self._rng = cluster.engine.rng(f"dare.{node_id}")
        self._deadline = 0
        self._reset_timer()
        self._last_leader_sign = 0   # ts of the freshest leader commit row

    def _reset_timer(self) -> None:
        span = self.cfg.heartbeat_timeout_max_ns - self.cfg.heartbeat_timeout_min_ns
        self._deadline = (self.engine.now + self.cfg.heartbeat_timeout_min_ns
                          + self._rng.randrange(max(1, span)))

    def _leader_idle(self) -> bool:
        nodes = self.cluster.nodes
        if any(p not in self._chain_phase and not nodes[p].crashed
               and nxt < len(self.log)
               and nxt - self._acked.get(p, 0) < self.cfg.max_inflight
               for p, nxt in self._chain_next.items()):
            return False
        return not (self._acked and self._quorum_valid() > self.commit_index)

    def park_deadline(self) -> Optional[int]:
        if self.is_leader:
            return self._last_commit_push + self.cfg.commit_push_period_ns
        # Randomized election timeout: fires at the first tick >= _deadline.
        return self._deadline

    # ---------------------------------------------------------------- leader

    def become_leader(self, term: int) -> None:
        super().become_leader(term)
        peers = [p for p in self.cluster.node_ids if p != self.node_id]
        self._chain_next = {p: min(self._acked.get(p, 0), len(self.log)) for p in peers}
        self._chain_phase = {}
        self._acked = {p: self._chain_next[p] for p in peers}
        self.engine.trace.count("dare.elected")

    def _lead(self) -> None:
        self._drain_completions()
        self._advance_chains()
        if self._acked:
            self.commit_index = max(self.commit_index, self._quorum_valid())
        self._push_commit_row()

    def _quorum_valid(self) -> int:
        """Entries a quorum holds valid (the leader's own log included)."""
        acks = sorted([len(self.log)] + list(self._acked.values()), reverse=True)
        return acks[self.cluster.quorum - 1]

    def _advance_chains(self) -> None:
        self._append_pending(self.cfg.entry_cpu_ns)
        probe = self.engine.probe
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

    # -------------------------------------------------------------- acceptor

    def _follow(self) -> None:
        c = self.cluster
        inbox = c.log_inboxes[self.node_id]
        while inbox:
            (kind, term, idx), value = inbox.pop(0)
            if term < self.term:
                continue
            self.term = max(self.term, term)
            # "valid" markers need no acceptor CPU: validity is checked
            # when delivering.
            if kind == "entry":
                self._store(idx, *value)
        row = c.commit_sst.read(self.node_id, c.leader)
        if row is not None:
            term, cidx, ts = row
            if term >= self.term:
                if cidx > self.seen_commit:
                    self.seen_commit = min(cidx, len(self.log))
                # Every fresh push is a leader sign, not only one that
                # advances the commit index: an idle leader stays leader.
                if ts > self._last_leader_sign:
                    self._last_leader_sign = ts
                    self._reset_timer()
        if self.engine.now >= self._deadline:
            c.run_election(self.node_id)
            self._reset_timer()


class DareCluster(LogCluster):
    """A DARE deployment.

    Elections use randomized timeouts with at-most-one-vote-per-round
    acceptors, so split votes force whole new rounds (§5) — implemented
    in :meth:`run_election`, which the timing-out acceptor triggers.
    """

    name = "dare"
    node_class = DareNode
    config_class = DareConfig

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._election_term = 0
        self._round_voted: dict[int, set] = {}   # term -> acceptors that voted

    def _log_deposit(self, i: int, key: Any, value: Any) -> None:
        super()._log_deposit(i, key, value)
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
            old, nd = self.nodes[self.leader], self.nodes[candidate]
            old.is_leader = False
            self._hand_off(old, nd)
            nd.become_leader(term)
            # Both role changes happened outside the victims' poll loops:
            # the deposed leader must resume acceptor-timeout polling and
            # the candidate (if not the caller) its replication chains.
            old.request_poll()
            nd.request_poll()
        else:
            self.engine.trace.count("dare.split_vote")
