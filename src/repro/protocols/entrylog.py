"""The columnar replicated log.

Acuerdo, Zab, Raft and the remote-log skeleton (Mu, DARE, APUS) keep
every entry they accept after it commits: a new leader's state transfer
(Acuerdo's diff, Zab SYNC, Raft AppendEntries, the remote-log hand-off)
reads committed entries.
So the log is the state that grows with operations, and
:class:`EntryLog` stores it in three columns instead of one object per
entry: the payload references in a list, and each entry's key and wire
size in ``array('q')`` columns of unboxed 64-bit integers.  An entry
costs 24 B; as a ``(key, payload, size)`` tuple in a list it cost 72 B
(a 64 B tuple and an 8 B slot), plus any key object of its own.

The key is what the protocol orders entries by: Acuerdo's packed
message header (:func:`repro.core.types.pack_hdr`), Zab's packed zxid,
Raft's term, and 0 for the remote logs, which order by index alone.
Acuerdo's log is *keyed*: :meth:`EntryLog.insert` keeps the keys
strictly increasing (an equal key overwrites, a smaller one lands in
order), so the keyed reads -- :meth:`~EntryLog.find`,
:meth:`~EntryLog.span`, :meth:`~EntryLog.truncate_from` and the prefix
drop :meth:`~EntryLog.drop_below` -- bisect the key column.  The other
logs append by index and never call them.

Indexing builds a ``(key, payload, size)`` tuple, and iterating yields
them, for the callers that need one: a wire message or a test.  A slice
is another :class:`EntryLog`.  Hot scans may read the ``keys``,
``payloads`` and ``sizes`` columns directly; only the methods mutate.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Iterable, Iterator, Union


class EntryLog:
    """An append-mostly log of ``(key, payload, size)`` entries, kept
    as three parallel columns."""

    __slots__ = ("keys", "payloads", "sizes")

    def __init__(self, entries: Iterable[tuple[int, Any, int]] = ()):
        self.keys = array("q")
        self.payloads: list[Any] = []
        self.sizes = array("q")
        self.extend(entries)

    def __len__(self) -> int:
        return len(self.payloads)

    def __iter__(self) -> Iterator[tuple[int, Any, int]]:
        return zip(self.keys, self.payloads, self.sizes)

    def __getitem__(self, i: Union[int, slice]) -> Any:
        if isinstance(i, slice):
            out = EntryLog.__new__(EntryLog)
            out.keys, out.payloads, out.sizes = \
                self.keys[i], self.payloads[i], self.sizes[i]
            return out
        return (self.keys[i], self.payloads[i], self.sizes[i])

    def key(self, i: int) -> int:
        return self.keys[i]

    def payload(self, i: int) -> Any:
        return self.payloads[i]

    def size(self, i: int) -> int:
        return self.sizes[i]

    def append(self, key: int, payload: Any, size: int) -> None:
        self.keys.append(key)
        self.payloads.append(payload)
        self.sizes.append(size)

    def put(self, i: int, key: int, payload: Any, size: int) -> None:
        """Overwrite entry ``i`` in place."""
        self.keys[i] = key
        self.payloads[i] = payload
        self.sizes[i] = size

    def truncate(self, n: int) -> None:
        """Drop every entry from index ``n`` on."""
        del self.keys[n:], self.payloads[n:], self.sizes[n:]

    def extend(self, entries: Iterable[tuple[int, Any, int]]) -> None:
        """Append ``entries``: another log, or ``(key, payload, size)``
        tuples off the wire."""
        if isinstance(entries, EntryLog):
            self.keys.extend(entries.keys)
            self.payloads.extend(entries.payloads)
            self.sizes.extend(entries.sizes)
            return
        for key, payload, size in entries:
            self.append(key, payload, size)

    # ------------------------------------------------------ keyed access

    def insert(self, key: int, payload: Any, size: int) -> None:
        """Keyed insert: append past the last key, overwrite an equal
        key, or insert a smaller one in key order."""
        keys = self.keys
        if not keys or key > keys[-1]:
            keys.append(key)
            self.payloads.append(payload)
            self.sizes.append(size)
            return
        i = bisect_left(keys, key)
        if keys[i] == key:
            self.put(i, key, payload, size)
        else:
            keys.insert(i, key)
            self.payloads.insert(i, payload)
            self.sizes.insert(i, size)

    def find(self, key: int) -> int:
        """Index of the entry keyed ``key``, or -1."""
        i = bisect_left(self.keys, key)
        return i if i < len(self.keys) and self.keys[i] == key else -1

    def span(self, lo: int, hi: int) -> "EntryLog":
        """The entries keyed ``lo <= key < hi``, as a slice."""
        keys = self.keys
        return self[bisect_left(keys, lo):bisect_left(keys, hi)]

    def truncate_from(self, key: int) -> None:
        """Drop every entry keyed ``key`` or above."""
        self.truncate(bisect_left(self.keys, key))

    def drop_below(self, key: int) -> int:
        """Drop every entry keyed below ``key`` (the prefix a log
        collection frees); returns how many went."""
        n = bisect_left(self.keys, key)
        del self.keys[:n], self.payloads[:n], self.sizes[:n]
        return n
