"""Simulated RDMA backend of :mod:`repro.substrate` (reliable
connections, ring buffers, SSTs).

This package is the substitution for the paper's Mellanox ConnectX-4 /
RoCE hardware (see DESIGN.md §1).  It models the mechanisms Acuerdo's
performance rests on:

- **one-sided writes** deposit into remote registered memory without any
  remote-CPU involvement (:mod:`repro.rdma.qp`);
- **reliable connections** deliver losslessly and in FIFO order, with
  go-back-N retransmission charged as extra delay on loss;
- **completions and selective signaling**: only explicitly signaled
  writes generate completion entries, and a completion retires every
  earlier unsignaled write on the same QP (:mod:`repro.rdma.nic`);
- **wire costs**: per-verb NIC processing, link serialisation at
  25 Gb/s, and the 80-byte minimum wire message that makes Acuerdo's
  one-write-per-message design twice as bandwidth-efficient as
  Derecho's two-write design for small payloads (§4.1);
- **ring buffers** whose slots the owning protocol releases
  (:mod:`repro.rdma.ringbuffer`) — on accept for Acuerdo, on commit
  for Derecho;
- **shared state tables** with last-writer-wins overwrite semantics
  (:mod:`repro.rdma.sst`).
"""

from repro.rdma.params import RdmaParams
from repro.rdma.memory import MemoryRegion, AccessError
from repro.rdma.nic import Nic, Completion, CompletionQueue
from repro.rdma.qp import QueuePair, SendQueueFullError
from repro.rdma.fabric import RdmaEndpoint, RdmaFabric
from repro.rdma.ringbuffer import RingBuffer, RingReceiver
from repro.rdma.sst import SharedStateTable

__all__ = [
    "RdmaParams",
    "MemoryRegion",
    "AccessError",
    "Nic",
    "Completion",
    "CompletionQueue",
    "QueuePair",
    "SendQueueFullError",
    "RdmaEndpoint",
    "RdmaFabric",
    "RingBuffer",
    "RingReceiver",
    "SharedStateTable",
]
