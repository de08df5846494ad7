"""RDMA ring buffers: single-sender, multi-receiver broadcast pipes.

This is the communication primitive of §3.2.  The sender mirrors each
message into a per-receiver remote ring with one-sided writes; receivers
poll their local tail (an L1-resident location until a write actually
lands) and drain whatever contiguous batch has arrived — receiver-side
batching.

Two design points from the paper are first-class here because they are
exactly what the Fig. 8 analysis attributes Acuerdo's win to:

- **slot release policy**: Acuerdo frees a slot once the receiver has
  merely *accepted* the message; Derecho only when it has been
  *committed across all active nodes*, which magnifies a single slow
  node.  The ring exposes ``mark_released`` and leaves the policy to the
  protocol, which calls it at its own release point.
- **writes per message**: Acuerdo couples metadata with data (one RDMA
  write per message); Derecho sends data and a separate counter update
  (two writes).  With an 80-byte wire minimum, that is a 2× bandwidth
  difference for small messages (§4.1).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Optional

from repro.rdma.fabric import RdmaFabric


class RingReceiver:
    """One receiver's local mirror of a sender's ring."""

    def __init__(self, ring: "RingBuffer", receiver: int):
        self.ring = ring
        self.receiver = receiver
        self._engine = ring.fabric.engine
        self._ready: deque[tuple[int, Any, int]] = deque()  # (seq, payload, size)
        self._staged: dict[int, tuple[Any, int]] = {}       # two-write mode staging
        self._visible_upto = -1                              # two-write mode counter
        self.next_read = 0
        self.delivered_msgs = 0

    # Called by the QP at delivery time (no receiver-CPU involvement).
    # Remote deposits ring the receiving host's poll-elision doorbell in
    # the QP layer; sender-local mirrors are stored while the sender is
    # executing, so its own loop is awake by construction.
    def _on_data(self, seq: int, payload: Any, size: int) -> None:
        if self.ring.writes_per_message == 1:
            self._ready.append((seq, payload, size))
        else:
            self._staged[seq] = (payload, size)

    def _on_counter(self, upto_seq: int) -> None:
        if upto_seq > self._visible_upto:
            self._visible_upto = upto_seq
            # FIFO delivery means all staged data writes <= upto have landed.
            while self._staged and self.next_read + len(self._ready) <= upto_seq:
                seq = self.next_read + len(self._ready)
                entry = self._staged.pop(seq, None)
                if entry is None:
                    break
                self._ready.append((seq, entry[0], entry[1]))

    def poll(self, max_batch: Optional[int] = None) -> list[tuple[int, Any]]:
        """Drain the contiguous batch of newly visible messages.

        Returns ``[(seq, payload), ...]`` in send order.  The size of the
        batch is determined purely by how much arrived since the last
        poll — the receiver-side batching model.
        """
        out: list[tuple[int, Any]] = []
        ready = self._ready
        probe = self._engine.probe
        now = self._engine.now
        while ready and (max_batch is None or len(out) < max_batch):
            seq, payload, _size = ready.popleft()
            out.append((seq, payload))
            self.next_read = seq + 1
            self.delivered_msgs += 1
            if probe is not None:
                probe.mark(payload, "poll_notice", now)
        return out

    @property
    def backlog(self) -> int:
        """Messages that have arrived but not yet been polled."""
        return len(self._ready)


class RingBuffer:
    """Sender side of a broadcast/unicast ring (§3.2).

    Parameters
    ----------
    fabric:
        RDMA fabric providing QPs and memory registration.
    sender:
        node id of the single writer.
    receivers:
        node ids mirrored to (may include ``sender``: self-delivery is a
        local memcpy, discovered like any other message at the next poll).
    capacity:
        slots per receiver ring; the sender stalls when any receiver's
        ring has no free slot under the current release state.
    writes_per_message:
        1 = Acuerdo-style coupled write; 2 = Derecho-style data+counter.
    signal_interval:
        request a completion every N writes per QP (selective signaling;
        the paper uses 1000).
    """

    def __init__(self, fabric: RdmaFabric, sender: int, receivers: Iterable[int],
                 capacity: int = 4096, writes_per_message: int = 1,
                 signal_interval: int = 1000, name: Optional[str] = None):
        if writes_per_message not in (1, 2):
            raise ValueError("writes_per_message must be 1 or 2")
        self.fabric = fabric
        self.sender = sender
        self.capacity = capacity
        self.writes_per_message = writes_per_message
        self.signal_interval = signal_interval
        self.name = name or f"ring.{sender}"
        self.next_seq = 0
        self.stalls = 0
        self._receivers: dict[int, RingReceiver] = {}
        self._regions: dict[int, tuple[Any, int]] = {}
        self._released: dict[int, int] = {}
        # Bumped whenever the release accounting changes; lets per-poll
        # observers (the slot_release monitor hook) skip the floor min()
        # when nothing moved.
        self.release_gen = 0
        # Bumped only by membership changes (evict / re-admit).
        # A floor advance while this moved is *administrative* — epoch
        # or view bookkeeping re-baselining a receiver — not the
        # accept-driven release policy, and monitor observers tag the
        # release accordingly.
        self.admin_gen = 0
        # Receivers whose current released value is an administrative
        # baseline (set by include_in_accounting) rather than the
        # product of observed accepts; cleared the moment a real
        # mark_released overtakes the baseline.  A floor supported by
        # fewer than a quorum of accept-driven values is escape-hatch
        # territory, not the §4.1 release rule.
        self._admin_baseline: set[int] = set()
        self._since_signal: dict[int, int] = {}
        for r in receivers:
            self._attach(r)

    def _attach(self, receiver: int) -> None:
        rr = RingReceiver(self, receiver)
        self._receivers[receiver] = rr
        self._released[receiver] = 0
        self._since_signal[receiver] = 0
        if receiver != self.sender:
            region = self.fabric.register(
                receiver, f"{self.name}.in{receiver}", size_bytes=self.capacity * 1024,
                on_write=lambda key, value, size, rr=rr: self._apply(rr, key, value, size))
            self._regions[receiver] = (region, region.grant())

    @staticmethod
    def _apply(rr: RingReceiver, key: Any, value: Any, size: int) -> None:
        kind, seq = key
        if kind == "data":
            rr._on_data(seq, value, size)
        else:  # "counter"
            rr._on_counter(seq)

    # ----------------------------------------------------------------- send

    def receiver(self, node_id: int) -> RingReceiver:
        """The mirror a given receiver polls."""
        return self._receivers[node_id]

    def free_slots(self) -> int:
        """Slots available under the most conservative receiver."""
        min_released = min(self._released.values()) if self._released else 0
        return self.capacity - (self.next_seq - min_released)

    @property
    def accept_accounted(self) -> int:
        """Accounted receivers whose released value is accept-driven
        (not an administrative re-admission baseline)."""
        return len(self._released) - len(self._admin_baseline)

    def released_floor(self) -> int:
        """Lowest released frontier across accounted receivers — the
        ring only ever reuses slots strictly below this sequence."""
        return min(self._released.values()) if self._released else self.next_seq

    def try_send(self, payload: Any, size_bytes: int,
                 targets: Optional[Iterable[int]] = None,
                 earliest_ns: int = 0) -> Optional[int]:
        """Broadcast (or unicast) one message; returns its seq, or None
        if every slot is occupied (the caller retries at its next poll).

        Note the asymmetry the paper exploits: sending never waits for
        acknowledgments — only slot exhaustion can stall the sender, and
        with accept-based release plus long rings that is rare.
        """
        if self.free_slots() <= 0:
            self.stalls += 1
            return None
        seq = self.next_seq
        self.next_seq = seq + 1
        # Iterating the receiver dict directly yields keys in the same
        # insertion order list() would, without the per-send allocation.
        dests = targets if targets is not None else self._receivers
        sender = self.sender
        two_writes = self.writes_per_message == 2
        write = self.fabric.write
        regions = self._regions
        since = self._since_signal
        interval = self.signal_interval
        # An armed ring attack on this sender may substitute the slot's
        # payload(s) per remote receiver: a different forgery each
        # (corrupt_ring) or a forged twin write into the same slot
        # (dup_ring).  Extra writes pay full wire costs.
        byz = self.fabric.engine.byz
        if byz is not None and sender not in byz._ring_modes:
            byz = None
        for r in dests:
            if r == sender:
                # Local mirror: plain store, visible at the next poll.  A
                # lying sender still keeps the honest payload, which is
                # what makes the receivers' divergence monitor-visible.
                rr = self._receivers[r]
                rr._on_data(seq, payload, size_bytes)
                if two_writes:
                    rr._on_counter(seq)
                continue
            repl = (None if byz is None
                    else byz.on_ring_write(self, seq, r, payload))
            count = since[r] + 1
            signaled = count >= interval
            since[r] = 0 if signaled else count
            region, rkey = regions[r]
            for pl in (payload,) if repl is None else repl:
                write(sender, r, region, rkey, ("data", seq), pl, size_bytes,
                      signaled, ("ring", seq), earliest_ns)
            if two_writes:
                # Separate 8-byte counter update (still >= 80 wire bytes).
                write(sender, r, region, rkey, ("counter", seq), None, 8,
                      False, None, earliest_ns)
        return seq

    # -------------------------------------------------------------- release

    def mark_released(self, receiver: int, upto_seq: int) -> None:
        """Protocol tells the sender that ``receiver`` no longer needs
        slots below ``upto_seq`` (exclusive).  Under ON_ACCEPT this is
        driven by acceptance state; under ON_COMMIT by commit state."""
        if upto_seq > self._released.get(receiver, 0):
            self._released[receiver] = min(upto_seq, self.next_seq)
            self._admin_baseline.discard(receiver)
            self.release_gen += 1

    def exclude_from_accounting(self, receiver: int) -> None:
        """Stop a lagging/suspected-dead receiver from wedging slot
        reuse, while continuing to mirror messages to it.

        This is the quorum-flexibility escape hatch: a crashed follower
        must not stall the sender forever once the ring wraps.  On real
        hardware the sender may now overwrite slots the receiver has not
        read, so a receiver excluded for long enough needs the next
        epoch's diff to recover; the simulation's mirrors are unbounded,
        which is optimistic only in that never-exercised corner (see
        DESIGN.md)."""
        self._released.pop(receiver, None)
        self._admin_baseline.discard(receiver)
        self.release_gen += 1
        self.admin_gen += 1

    def include_in_accounting(self, receiver: int, released_upto: int) -> None:
        """Re-admit a receiver to slot accounting (start of a new epoch,
        after its diff made earlier slots irrelevant)."""
        self._released[receiver] = min(max(released_upto, 0), self.next_seq)
        self._admin_baseline.add(receiver)
        self.release_gen += 1
        self.admin_gen += 1
