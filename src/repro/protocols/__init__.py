"""Atomic broadcast systems: Acuerdo's competitors from §4.

Every system here implements :class:`repro.protocols.base.BroadcastSystem`
so the harness can drive all seven identically (the same closed-loop
client, the same safety checker, the same metrics):

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

Acuerdo itself lives in :mod:`repro.core` and exposes the same
interface through :class:`repro.core.cluster.AcuerdoCluster`.
"""

from repro.protocols.base import BroadcastSystem, DeliveryRecorder, Replica

__all__ = ["BroadcastSystem", "DeliveryRecorder", "Replica"]
