"""Unit tests for Acuerdo's wire types and their total order (Fig. 1)."""

from repro.core import Epoch, MsgHdr, Vote, Message, HDR_ZERO, EPOCH_ZERO, VOTE_ZERO
from repro.core.types import diff_payload_size, pack_hdr, HDR_BYTES
from repro.protocols.entrylog import EntryLog


def test_epochs_order_by_round_then_leader():
    assert Epoch(0, 1) < Epoch(0, 2)
    assert Epoch(0, 9) < Epoch(1, 0)
    assert Epoch(2, 3) == Epoch(2, 3)
    assert max(Epoch(1, 5), Epoch(2, 0)) == Epoch(2, 0)


def test_headers_order_by_epoch_then_count():
    e01, e02 = Epoch(0, 1), Epoch(0, 2)
    assert MsgHdr(e01, 5) < MsgHdr(e01, 6)
    assert MsgHdr(e01, 999) < MsgHdr(e02, 0)
    assert MsgHdr(e01, 1) > MsgHdr(e01, 0)


def test_header_next_increments_count_within_epoch():
    h = MsgHdr(Epoch(3, 1), 7)
    assert h.next() == MsgHdr(Epoch(3, 1), 8)
    assert h.next() > h


def test_votes_order_by_epoch_then_accepted():
    e1, e2 = Epoch(1, 0), Epoch(1, 1)
    h_lo, h_hi = MsgHdr(EPOCH_ZERO, 1), MsgHdr(EPOCH_ZERO, 2)
    assert Vote(e1, h_hi) < Vote(e2, h_lo)   # epoch dominates
    assert Vote(e1, h_lo) < Vote(e1, h_hi)   # then accepted header


def test_zero_constants_are_minimal():
    assert EPOCH_ZERO <= Epoch(0, 0)
    assert HDR_ZERO <= MsgHdr(Epoch(0, 0), 0)
    assert VOTE_ZERO <= Vote(Epoch(0, 0), HDR_ZERO)


def test_message_is_diff_iff_count_zero():
    e = Epoch(1, 2)
    assert Message(MsgHdr(e, 0), (), 10).is_diff
    assert not Message(MsgHdr(e, 1), "x", 10).is_diff


def test_diff_payload_size_accounts_for_entries():
    e = Epoch(1, 0)
    entries = EntryLog((pack_hdr(MsgHdr(e, i)), "p", 100) for i in range(1, 4))
    assert diff_payload_size(entries) == 3 * (100 + HDR_BYTES) + HDR_BYTES
    assert diff_payload_size(EntryLog()) == HDR_BYTES


def test_headers_are_hashable_log_keys():
    d = {MsgHdr(Epoch(0, 1), 1): "a"}
    assert d[MsgHdr(Epoch(0, 1), 1)] == "a"
