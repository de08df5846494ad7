"""Shared State Table (SST): replicated last-writer-wins state rows.

Introduced by Derecho and leveraged throughout Acuerdo (§3.2, Fig. 2),
the SST is a replicated array indexed by node id.  Each node may write
only its own row and pushes updates to peers with one-sided writes that
*overwrite* the previous value — the receiver only ever cares about the
newest write, so updates always target the same remote address and a
single read of the local copy yields a consistent-enough "snapshot".

Because rows carry monotonically increasing values in every use in this
codebase (last accepted header, last committed header, current vote),
RDMA's FIFO delivery means a reader can never observe a row going
backwards — the property that makes "acknowledge only the newest
message" sound (§3.2).  Property tests assert this monotonicity.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.rdma.fabric import RdmaFabric


class SharedStateTable:
    """One named SST replicated across ``members``.

    Each member holds a complete local copy (`dict row-owner -> value`).
    ``write_local`` + ``push`` implement the paper's
    ``SST[Self] = v; SST.push_mine()`` idiom.
    """

    def __init__(self, fabric: RdmaFabric, name: str, members: Iterable[int],
                 row_size_bytes: int = 24, initial: Any = None,
                 signal_interval: int = 1000):
        self.fabric = fabric
        self.name = name
        self.members = list(members)
        self.row_size_bytes = row_size_bytes
        self.signal_interval = signal_interval
        # copies[reader][row_owner] -> latest value known to `reader`
        self.copies: dict[int, dict[int, Any]] = {
            m: {o: initial for o in self.members} for m in self.members}
        # Change counter per local copy: lets a poll loop skip predicate
        # re-evaluation when nothing has landed since its last look.
        self._versions: dict[int, int] = {m: 0 for m in self.members}
        self._regions: dict[int, tuple[Any, int]] = {}
        # Pre-seeded for every ordered member pair so push never pays the
        # .get default path.
        self._since_signal: dict[tuple[int, int], int] = {
            (m, t): 0 for m in self.members for t in self.members if m != t}
        self._write = fabric.write  # prebound: one hot call per push target
        self._wr_id = ("sst", name)  # one shared tuple, not one per push
        #: Protection-domain model: with ``protected`` True (the default,
        #: matching real RDMA registration — each member's QP is granted
        #: write access to its own row only), :meth:`remote_write_row`
        #: refuses writes to rows the writer does not own.  The
        #: adversary harness flips this off to model a substrate without
        #: per-row grants (see DESIGN.md §12).
        self.protected = True
        #: Optional row-overwrite observer ``hook(sst, holder, row, old,
        #: new)`` installed by the Byzantine injector while an SST attack
        #: is armed; None on every honest run so ``_apply`` stays on its
        #: two-line fast path.
        self._mon_hook = None
        #: Per-holder quiet verdicts ``fn(row, old, new) -> bool`` (see
        #: :meth:`declare_quiet`); empty unless a protocol installs one.
        self._quiet: dict[int, Callable[[int, Any, Any], bool]] = {}
        self.pushes = 0
        for m in self.members:
            region = self.fabric.register(
                m, f"sst.{name}.{m}", size_bytes=row_size_bytes * len(self.members),
                on_write=lambda row, value, _size, m=m: self._apply(m, row, value))
            self._regions[m] = (region, region.grant())

    def _apply(self, holder: int, row: int, value: Any) -> bool:
        copy = self.copies[holder]
        old = copy[row]
        hook = self._mon_hook
        if hook is not None:
            hook(self, holder, row, old, value)
        copy[row] = value
        self._versions[holder] += 1
        quiet = self._quiet.get(holder)
        return quiet is not None and quiet(row, old, value)

    def declare_quiet(self, holder: int,
                      verdict: Callable[[int, Any, Any], bool]) -> None:
        """Let ``holder``'s process rule on landing row writes:
        ``verdict(row, old, new)`` returning True declares the write
        quiet — the version still bumps, but the substrate logs the
        deposit on a parked holder instead of waking it (the contract
        is in DESIGN.md §6, "Quiet deposits")."""
        self._quiet[holder] = verdict

    def remote_write_row(self, writer: int, holder: int, row: int,
                         value: Any) -> bool:
        """Attempt a one-sided write of ``row`` in ``holder``'s copy on
        behalf of ``writer`` — *any* row, not just the writer's own.

        This is the adversarial entry point: the normal protocol path
        (:meth:`push`) only ever writes the pusher's own row.  With
        :attr:`protected` True the protection domain blocks any
        ``row != writer`` attempt before it reaches the wire (returns
        False) — the RDMA argument that a non-owner cannot forge a
        remote SST row.  Unprotected, the forged write travels the same
        QP path as a real push.  Returns True iff the write was issued.
        """
        if self.protected and row != writer:
            return False
        if holder == writer:
            self._apply(holder, row, value)
            return True
        region, rkey = self._regions[holder]
        self.fabric.write(writer, holder, region, rkey, row, value,
                          self.row_size_bytes, wr_id=("byz", self.name))
        return True

    def version(self, holder: int) -> int:
        """Monotone counter bumped whenever ``holder``'s copy changes.

        Remote bumps arrive through the QP delivery path, which also
        rings the holder's poll-elision doorbell — so a parked node never
        misses a version change it did not itself declare quiet (see
        ``repro.sim.process``)."""
        return self._versions[holder]

    # ------------------------------------------------------------------ API

    def read(self, reader: int, row: int) -> Any:
        """Read ``row`` from ``reader``'s local copy (pure local memory)."""
        return self.copies[reader][row]

    def snapshot(self, reader: int) -> dict[int, Any]:
        """Copy of the reader's entire local table (Fig. 7's ``votes_cpy``)."""
        return dict(self.copies[reader])

    def write_local(self, node: int, value: Any) -> None:
        """Update ``node``'s own row in its local copy (no network)."""
        self.copies[node][node] = value
        self._versions[node] += 1

    def push(self, node: int, targets: Optional[Iterable[int]] = None,
             earliest_ns: int = 0) -> None:
        """Mirror ``node``'s own row to ``targets`` (default: all peers)
        with one one-sided write each (``push_mine`` / ``push_mine_to``)."""
        value = self.copies[node][node]
        dests = targets if targets is not None else self.members
        since = self._since_signal
        regions = self._regions
        write = self._write
        row_bytes = self.row_size_bytes
        interval = self.signal_interval
        wr_id = self._wr_id
        for t in dests:
            if t == node:
                continue
            k = (node, t)
            count = since[k] + 1
            signaled = count >= interval
            since[k] = 0 if signaled else count
            region, rkey = regions[t]
            write(node, t, region, rkey, node, value, row_bytes, signaled,
                  wr_id, earliest_ns)
            self.pushes += 1

    def set_and_push(self, node: int, value: Any,
                     targets: Optional[Iterable[int]] = None,
                     earliest_ns: int = 0) -> None:
        """Convenience: ``write_local`` then ``push``."""
        self.write_local(node, value)
        self.push(node, targets, earliest_ns=earliest_ns)
