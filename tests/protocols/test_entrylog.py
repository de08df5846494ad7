"""EntryLog: the columnar log keeps the tuple view its callers index."""

from __future__ import annotations

from repro.protocols.entrylog import EntryLog


def test_entries_read_back_as_tuples_and_slices_stay_columnar():
    log = EntryLog([(1, "a", 10), (1, "b", 20)])
    log.append(2, "c", 30)
    assert len(log) == 3
    assert log[0] == (1, "a", 10) and log[-1] == (2, "c", 30)
    assert (log.key(1), log.payload(1), log.size(1)) == (1, "b", 20)
    tail = log[1:]
    assert isinstance(tail, EntryLog) and list(tail) == [(1, "b", 20), (2, "c", 30)]
    tail.put(0, 9, None, 0)
    assert log[1] == (1, "b", 20), "a slice is a copy"


def test_truncate_then_extend_replaces_a_suffix():
    log = EntryLog([(1, "a", 10), (1, "b", 20), (1, "c", 30)])
    log.truncate(1)
    log.extend(EntryLog([(2, "x", 5)]))
    log.extend(((2, "y", 6),))
    assert list(log) == [(1, "a", 10), (2, "x", 5), (2, "y", 6)]
    assert sum(log.sizes) == 21
