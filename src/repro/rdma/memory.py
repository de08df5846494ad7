"""Registered memory regions and remote-access keys.

Before a peer may write into a node's memory it must hold an ``rkey``
for a region that was explicitly registered for remote access — the same
handshake real RDMA applications perform at connection setup (§2.1).
The simulation enforces this: a one-sided write against a region whose
rkey does not match raises :class:`AccessError`, and the permission
tests assert that protocols only touch memory they were granted.

Regions do not model byte layouts (payloads are Python objects); they
model *ownership and access rights*, plus a declared byte size used by
the cost model.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

_rkey_counter = itertools.count(0xBEEF)


class AccessError(Exception):
    """A remote write presented a stale or foreign rkey."""


class MemoryRegion:
    """A pinned, registered region of one node's memory.

    Parameters
    ----------
    owner:
        node id of the host whose memory this is.
    name:
        debugging label ("ring.n0.in3", "accept_sst.n2", ...).
    size_bytes:
        declared registration size (bookkeeping only).
    on_write:
        callback ``(key, value, size_bytes)`` invoked when a remote
        one-sided write lands.  It runs with *no CPU involvement* on
        the owner — the owning process only observes the effect at its
        next poll.  A true return value declares the write *quiet*: the
        poll that observes it will do nothing the owner cannot stamp
        after the fact (see ``Process.quiet_deposit``).
    """

    def __init__(self, owner: int, name: str, size_bytes: int,
                 on_write: Callable[[Any, Any, int], Any]):
        self.owner = owner
        self.name = name
        self.size_bytes = size_bytes
        self._on_write = on_write
        self.rkey = next(_rkey_counter)
        self.writes_received = 0
        self.bytes_received = 0
        self._revoked = False

    def grant(self) -> int:
        """Return the rkey a remote peer needs to write here."""
        return self.rkey

    def revoke(self) -> None:
        """Invalidate all outstanding rkeys (used by tests and by the
        DARE-style connection-close discussion in §5)."""
        self._revoked = True

    def remote_write(self, rkey: int, key: Any, value: Any, size_bytes: int) -> Any:
        """Apply a one-sided write.  Called by the QP at delivery time;
        returns ``on_write``'s quiet verdict."""
        if self._revoked or rkey != self.rkey:
            raise AccessError(f"bad rkey {rkey:#x} for region {self.name}")
        self.writes_received += 1
        self.bytes_received += size_bytes
        return self._on_write(key, value, size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemoryRegion {self.name} owner={self.owner} rkey={self.rkey:#x}>"
