"""Acuerdo: the paper's atomic broadcast protocol (Sections 3.1-3.4).

Public surface:

- :mod:`repro.core.types` — epochs, message headers, votes and messages
  (Fig. 1), ordered exactly by the paper's left-to-right tuple rule;
- :mod:`repro.core.election` — the pure vote rules of Fig. 7, separated
  from the node so they can be unit- and property-tested directly;
- :mod:`repro.core.node` — the node state machine: broadcasting
  (Fig. 4), accepting incl. diffs (Fig. 5), committing incl. diffs
  (Fig. 6), election and leader transition (Fig. 7);
- :mod:`repro.core.cluster` — wiring of nodes, ring buffers and the
  Accept/Vote/Commit SSTs over the simulated RDMA fabric, plus the
  client-facing API.
"""

from repro.core.types import (
    Epoch,
    MsgHdr,
    Vote,
    Message,
    CommitRow,
    EPOCH_ZERO,
    HDR_ZERO,
    VOTE_ZERO,
)
from repro.core.election import max_vote, new_bigger_epoch, decide_vote, VoteDecision
from repro.core.config import AcuerdoConfig
from repro.core.node import AcuerdoNode, Role
from repro.core.cluster import AcuerdoCluster

__all__ = [
    "Epoch",
    "MsgHdr",
    "Vote",
    "Message",
    "CommitRow",
    "EPOCH_ZERO",
    "HDR_ZERO",
    "VOTE_ZERO",
    "max_vote",
    "new_bigger_epoch",
    "decide_vote",
    "VoteDecision",
    "AcuerdoConfig",
    "AcuerdoNode",
    "Role",
    "AcuerdoCluster",
]
