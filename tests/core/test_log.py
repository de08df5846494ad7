"""Unit tests for Acuerdo's message log: an ``EntryLog`` keyed by the
packed message header."""

import pytest

from repro.core import Epoch, MsgHdr
from repro.core.types import CNT_LIMIT, pack_hdr, unpack_hdr
from repro.harness import RunSpec
from repro.harness.factory import prepare
from repro.protocols.entrylog import EntryLog
from repro.sim import ms


def _key(round_, leader, cnt):
    return pack_hdr(MsgHdr(Epoch(round_, leader), cnt))


def _insert(log, round_, leader, cnt, payload="p"):
    log.insert(_key(round_, leader, cnt), payload, 10)


def _hdrs(log):
    return [unpack_hdr(k) for k in log.keys]


def test_insert_and_lookup():
    log = EntryLog()
    for cnt in (1, 2, 3):
        _insert(log, 0, 1, cnt, f"m{cnt}")
    i = log.find(_key(0, 1, 2))
    assert log[i] == (_key(0, 1, 2), "m2", 10)
    assert len(log) == 3
    assert log.find(_key(0, 1, 4)) == -1
    assert log.find(_key(0, 0, 2)) == -1


def test_insert_overwrite_same_header():
    log = EntryLog()
    _insert(log, 0, 1, 1, "old")
    _insert(log, 0, 1, 2, "tail")
    _insert(log, 0, 1, 2, "new")          # equal to the last key
    _insert(log, 0, 1, 1, "new1")         # equal to an earlier key
    assert len(log) == 2
    assert log.payloads == ["new1", "new"]


def test_headers_sorted_regardless_of_insert_order():
    log = EntryLog()
    for cnt in (3, 1, 2):
        _insert(log, 0, 1, cnt, cnt)
    assert [h.cnt for h in _hdrs(log)] == [1, 2, 3]
    assert log.payloads == [1, 2, 3]
    assert list(log.sizes) == [10, 10, 10]


def test_cross_epoch_ordering():
    log = EntryLog()
    _insert(log, 1, 2, 1)
    _insert(log, 0, 1, 5)
    _insert(log, 0, 2, 0)
    assert [h.e for h in _hdrs(log)] == [Epoch(0, 1), Epoch(0, 2), Epoch(1, 2)]


def test_truncate_from_removes_tail():
    log = EntryLog()
    for cnt in range(1, 6):
        _insert(log, 0, 1, cnt)
    log.truncate_from(_key(0, 1, 3))
    assert [h.cnt for h in _hdrs(log)] == [1, 2]


def test_truncate_from_no_match_is_noop():
    log = EntryLog()
    _insert(log, 0, 1, 1)
    log.truncate_from(_key(5, 5, 0))
    assert len(log) == 1


def test_range_default_is_half_open_lo_closed_hi():
    # The diff commit's (Committed, Next) and any (lo, hi] read are
    # spans of the integer keys: (lo, hi] == [lo + 1, hi + 1).
    log = EntryLog()
    for cnt in range(1, 6):
        _insert(log, 0, 1, cnt)
    got = log.span(_key(0, 1, 2) + 1, _key(0, 1, 4) + 1)
    assert isinstance(got, EntryLog)
    assert [h.cnt for h in _hdrs(got)] == [3, 4]


def test_range_inclusive_bounds():
    log = EntryLog()
    for cnt in range(1, 6):
        _insert(log, 0, 1, cnt)
    lo, hi = _key(0, 1, 2), _key(0, 1, 4)
    assert [h.cnt for h in _hdrs(log.span(lo, hi + 1))] == [2, 3, 4]
    assert [h.cnt for h in _hdrs(log.span(lo + 1, hi))] == [3]
    assert len(log.span(hi, lo)) == 0


def test_range_spans_epochs():
    log = EntryLog()
    _insert(log, 0, 1, 8, "a")
    _insert(log, 0, 1, 9, "b")
    _insert(log, 1, 2, 1, "c")
    got = log.span(_key(0, 1, 8) + 1, _key(1, 2, 1) + 1)
    assert _hdrs(got) == [MsgHdr(Epoch(0, 1), 9), MsgHdr(Epoch(1, 2), 1)]
    assert got.payloads == ["b", "c"]


def test_trim_below_garbage_collects():
    log = EntryLog()
    for cnt in range(1, 11):
        _insert(log, 0, 1, cnt)
    assert log.drop_below(_key(0, 1, 8)) == 7
    assert [h.cnt for h in _hdrs(log)] == [8, 9, 10]
    assert len(log.payloads) == len(log.sizes) == 3
    assert log.drop_below(_key(0, 1, 8)) == 0


def test_last_hdr():
    log = EntryLog()
    assert not log
    _insert(log, 0, 1, 2)
    _insert(log, 0, 1, 1)
    assert unpack_hdr(log.keys[-1]) == MsgHdr(Epoch(0, 1), 2)


def test_extend():
    # Applying a diff: truncate to the diff's first key, then extend by
    # the leader's slice, which keeps the keys increasing.
    leader, follower = EntryLog(), EntryLog()
    for cnt in range(1, 5):
        _insert(leader, 0, 1, cnt, f"l{cnt}")
    for cnt in range(1, 4):
        _insert(follower, 0, 1, cnt, f"f{cnt}")
    _insert(follower, 0, 2, 1, "deposed")
    diff = leader.span(_key(0, 1, 2), _key(0, 1, 4) + 1)
    follower.truncate_from(diff.keys[0])
    follower.extend(diff)
    assert [h.cnt for h in _hdrs(follower)] == [1, 2, 3, 4]
    assert follower.payloads == ["f1", "l2", "l3", "l4"]


# ----------------------------------------------------------- header packing

def test_packed_header_order_is_header_order():
    hdrs = [MsgHdr(Epoch(r, ldr), c) for r in (0, 1, 2**23 - 1)
            for ldr in (0, 1, 255) for c in (0, 1, 2**32 - 1)]
    assert sorted(hdrs, key=pack_hdr) == sorted(hdrs)
    assert [unpack_hdr(pack_hdr(h)) for h in hdrs] == hdrs
    assert pack_hdr(MsgHdr(Epoch(1, 2), 3)) == 1 << 40 | 2 << 32 | 3


@pytest.mark.parametrize("hdr", [
    MsgHdr(Epoch(0, 0), 2**32), MsgHdr(Epoch(0, 256), 0),
    MsgHdr(Epoch(2**23, 0), 0), MsgHdr(Epoch(-1, 0), 0),
    MsgHdr(Epoch(0, -1), 0), MsgHdr(Epoch(0, 0), -1)])
def test_pack_rejects_fields_outside_the_layout(hdr):
    with pytest.raises(ValueError, match="packed layout"):
        pack_hdr(hdr)


def test_leader_refuses_a_count_past_the_packed_layout():
    # Followers key an accepted message by ``pack_hdr((E_cur, 0)) + cnt``
    # without re-checking cnt, so the leader refuses the overflowing one.
    system = prepare(RunSpec(system="acuerdo", n=3, seed=3))
    leader = system.nodes[system.leader_id()]
    leader.Count = CNT_LIMIT - 1
    system.submit("p", 8)
    with pytest.raises(ValueError, match="ran out of message counts"):
        system.engine.run(until=system.engine.now + ms(0.1))
