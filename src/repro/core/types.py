"""Acuerdo's wire types (Fig. 1 of the paper).

All tuples are ordered by their values left to right — we use
``typing.NamedTuple`` so the comparison operators implement exactly the
paper's rule:

- epochs order by ``(round, leader_id)``;
- message headers by ``(epoch, count)``, so every message of a later
  epoch follows every message of an earlier one, and within an epoch the
  leader-assigned count orders messages;
- votes by ``(proposed epoch, candidate's last-accepted header)``, which
  is what makes the election a monotone fixed-point computation.
"""

from __future__ import annotations

from typing import Any, NamedTuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.entrylog import EntryLog


class Epoch(NamedTuple):
    """A leader's period of sovereignty: ``(round number, leader id)``."""

    round: int
    leader: int


class MsgHdr(NamedTuple):
    """Global position of a message: ``(epoch proposed in, count)``.

    ``cnt == 0`` is reserved for the diff message that opens an epoch
    (§3.4); normal broadcasts start at 1.
    """

    e: Epoch
    cnt: int

    def next(self) -> "MsgHdr":
        """Header directly after this one within the same epoch."""
        return MsgHdr(self.e, self.cnt + 1)


class Vote(NamedTuple):
    """One row of the Vote SST: the epoch the voter wants to join and the
    last message its candidate has accepted."""

    e_new: Epoch
    acpt: MsgHdr


class Message(NamedTuple):
    """A log entry: header, opaque payload, and payload size in bytes
    (sizes feed the wire-cost model, payloads are never serialised)."""

    hdr: MsgHdr
    payload: Any
    size: int

    @property
    def is_diff(self) -> bool:
        """True for the epoch-opening diff message (count zero)."""
        return self.hdr.cnt == 0


class CommitRow(NamedTuple):
    """One row of the Commit SST.

    The paper's Commit_SST row carries only the last committed header;
    a real deployment additionally needs liveness information on the
    same row (an idle leader would otherwise look dead, since an
    unchanged header is indistinguishable from a crashed peer under
    overwrite semantics).  We piggyback a heartbeat counter, bumped on
    every periodic push, exactly as production SST implementations do.
    Ordering/commit logic only ever reads ``committed``.
    """

    committed: MsgHdr
    heartbeat: int


EPOCH_ZERO = Epoch(0, 0)
HDR_ZERO = MsgHdr(EPOCH_ZERO, 0)
VOTE_ZERO = Vote(EPOCH_ZERO, HDR_ZERO)

#: Serialized sizes (bytes) used by the wire-cost model: epoch = 2 x u32,
#: count = u32, so a header is 12 B; a vote is epoch + header = 20 B.
HDR_BYTES = 12
VOTE_BYTES = 20
COMMIT_ROW_BYTES = HDR_BYTES + 8


#: Packed-header layout ``round << 40 | leader << 32 | cnt``: integer
#: order is header order while every field fits its bits, and the key
#: fits a signed 64-bit column.
_ROUND_LIMIT, _LEADER_LIMIT, CNT_LIMIT = 1 << 23, 1 << 8, 1 << 32


def pack_hdr(h: MsgHdr) -> int:
    """The log key of header ``h``: one order-preserving integer.
    Raises ``ValueError`` for a field outside the layout."""
    (rnd, leader), cnt = h
    if not (0 <= cnt < CNT_LIMIT and 0 <= leader < _LEADER_LIMIT
            and 0 <= rnd < _ROUND_LIMIT):
        raise ValueError(f"header {h!r} does not fit the packed layout "
                         f"(round < 2**23, leader < 2**8, cnt < 2**32)")
    return rnd << 40 | leader << 32 | cnt


def unpack_hdr(key: int) -> MsgHdr:
    """Inverse of :func:`pack_hdr`."""
    return MsgHdr(Epoch(key >> 40, key >> 32 & 0xFF), key & 0xFFFFFFFF)


def diff_payload_size(entries: "EntryLog") -> int:
    """Wire size of a diff: the included messages plus a header each."""
    return sum(entries.sizes) + HDR_BYTES * (len(entries) + 1)
