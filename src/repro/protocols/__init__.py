"""Atomic broadcast systems: Acuerdo's competitors from §4 and §5.

Every system here implements :class:`repro.protocols.base.BroadcastSystem`
so the harness drives every system, Acuerdo included, identically (the
same closed-loop client, the same safety checker, the same metrics).
The §4 baselines:

- :mod:`repro.protocols.derecho` — virtual synchrony over RDMA, in
  ``leader`` and ``all`` (round-robin senders) modes;
- :mod:`repro.protocols.apus` — leader-based Paxos over RDMA with
  APUS's single-outstanding-batch pipeline;
- :mod:`repro.protocols.paxos` — classic multi-Paxos over TCP
  (libpaxos);
- :mod:`repro.protocols.zab` — Zab over TCP (ZooKeeper), per-message
  follower ACKs and the post-election state-transfer check;
- :mod:`repro.protocols.raft` — Raft over TCP (etcd), randomized
  election timeouts and AppendEntries replication.

The extension systems, which the paper discusses but does not benchmark:

- :mod:`repro.protocols.dare` — DARE, the RDMA ancestor: fine-grained
  entry→valid completion chains and split-vote-prone elections;
- :mod:`repro.protocols.mu` — Mu: a write's completion is the
  follower's acknowledgment; fail-over re-registers every log;
- :mod:`repro.protocols.dolev` and :mod:`repro.protocols.bracha` —
  Byzantine-tolerant reliable broadcast over TCP, the adversary
  suite's baselines.

APUS, DARE and Mu share the remote-log skeleton of
:mod:`repro.protocols.remotelog`.  Acuerdo itself lives in
:mod:`repro.core` and exposes the same interface through
:class:`repro.core.cluster.AcuerdoCluster`.
"""

from repro.protocols.base import BroadcastSystem, DeliveryRecorder, Replica

__all__ = ["BroadcastSystem", "DeliveryRecorder", "Replica"]
