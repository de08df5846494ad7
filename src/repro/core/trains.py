"""Heartbeat trains: Commit-SST heartbeats that schedule no engine events.

Every Acuerdo replica pushes its Commit-SST row to every peer each
``commit_push_period_ns`` (deviation 1 in :mod:`repro.core.node`), and a
parked replica used to wake for each push: a horizon event, a poll that
found nothing else to do, and one landing event per peer.  SST rows are
last-writer-wins, so a receiver only ever acts on the newest row — and
most heartbeat rows it never acts on at all: they are *quiet* under the
verdict each receiver declares on its copy of the table
(:meth:`AcuerdoNode.heartbeat_is_quiet <repro.core.node.AcuerdoNode.heartbeat_is_quiet>`).

A push is *pure* when every receiver it reaches rules it quiet and it
is not the selectively signaled one (whose completion must wake the
sender).  When a parked replica's next push is pure, its pushes become a
*train*: the push ticks are the replica's own virtual poll ticks, drawn
by the one tick walker (:meth:`Process._walk_to`) that also serves its
wakes, and nothing is scheduled.  What the pushes would have done — NIC
occupancy, the QP's FIFO floor, loss draw and counters, the row landing
in each receiver's copy and a parked receiver's heartbeat stamp — is
materialized by :meth:`HeartbeatTrains.catch_up`, in the order the eager
events would have run.  The engine calls it (:meth:`Engine.add_train
<repro.sim.engine.Engine.add_train>`) before it dispatches any event at
or after :attr:`HeartbeatTrains.due` and before ``run`` returns, so any
event, and any caller between runs, observes current state.

Ties follow the parked loop's rules (DESIGN.md §6): relative to the
event that triggers a catch-up — due at ``T``, scheduled at ``c`` — a
push on tick ``p`` ran before it iff ``p < T`` or the tick's poll was
scheduled before ``c`` (``request_poll``'s rule), and a landing at ``L``
posted at ``q`` did iff ``(L, q) <= (T, c)`` (``_walk_to``'s landing rule).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

from repro.core.types import CommitRow

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import AcuerdoCluster
    from repro.core.node import AcuerdoNode

_NEVER = float("inf")
_new_row = tuple.__new__     # CommitRow(...) without its Python-level __new__
_LAST = (_NEVER, _NEVER)


class HeartbeatTrains:
    """The heartbeat trains of one Acuerdo group (one per cluster)."""

    def __init__(self, cluster: "AcuerdoCluster"):
        self.engine = cluster.engine
        self.sst = sst = cluster.commit_sst
        self.fabric = fabric = cluster.fabric
        self.period = cluster.cfg.commit_push_period_ns
        #: earliest instant at which anything elided can be due; the
        #: engine calls catch_up before events from then on
        self.due: float = _NEVER
        # node id -> [node, pushes left, deadline, tick, key]; the tick
        # is None until the walker has resolved the deadline.
        self._trains: dict[int, list] = {}
        # Elided writes in flight, a heap of (landed_at, posted_at, seq,
        # route, row, old): ``old`` is the row the receiver holds when
        # this one lands (None: the table's initial row).
        self._landings: list[tuple] = []
        self._seq = 0
        # sender -> its Commit-SST row's routes: (receiver, signal
        # counter key, QP, region, receiver NIC, receiver's copy, rkey)
        self._routes: dict[int, list[tuple]] = {}
        # (sender, receiver) -> the last row posted between them, i.e.
        # what the receiver holds once everything in flight has landed
        self._sent: dict[tuple[int, int], CommitRow] = {}
        for me in sst.members:
            self._routes[me] = [
                (peer, (me, peer), fabric.qps[me, peer], sst._regions[peer][0],
                 fabric.nics[peer], sst.copies[peer], sst._regions[peer][1])
                for peer in sst.members if peer != me]
            cluster.nodes[me]._trains = self
        fabric.trains = self
        self.engine.add_train(self)

    # ------------------------------------------------------------ eligibility

    def pure_pushes(self, node: "AcuerdoNode") -> int:
        """How many of ``node``'s next pushes are pure (0: the next one
        is not, and none is while any of its QPs is cut: a train never
        crosses a cut).  Each receiver the next push reaches rules on it
        with its declared verdict, against the row it will hold when the
        push lands.  The receivers' state cannot change before the rows
        land without a :meth:`revalidate`, and the later pushes carry the
        same ``committed`` and higher counters, so they are pure whenever
        the first is.  The count stops before the next signaled push, whose
        completion wakes the sender."""
        if node.crashed or self.engine.byz is not None:
            return 0
        me = node.node_id
        routes = self._routes[me]
        # Every push reaches every peer's counter (a dropped write too),
        # so the counters of one sender move together.
        left = (self.sst.signal_interval - 1
                - self.sst._since_signal[routes[0][1]])
        if left <= 0:
            return 0
        row = _new_row(CommitRow, (node.Committed, node._hb_seq + 1))
        verdicts = self.sst._quiet
        sent = self._sent
        for peer, pair, qp, _region, dst, copy, _rkey in routes:
            if qp.cut:
                return 0
            if not dst.powered:
                continue        # the write lands nowhere
            held = sent.get(pair)
            if not verdicts[peer](me, copy[me] if held is None else held, row):
                return 0
        return left

    def note_push(self, me: int, row: CommitRow) -> None:
        """An eager push of ``row`` by ``me``."""
        sent = self._sent
        for _peer, pair, qp, _region, _dst, _copy, _rkey in self._routes[me]:
            if not qp.cut:
                sent[pair] = row

    def start(self, node: "AcuerdoNode", pushes: int) -> None:
        """``node`` just parked with ``pushes`` pure pushes ahead (its
        park deadline covers the one after them); with none, the train
        of an earlier park is gone."""
        if not pushes:
            self._trains.pop(node.node_id, None)
            return
        deadline = node._last_commit_push + self.period
        self._trains[node.node_id] = [node, pushes, deadline, None,
                                      (deadline, 0)]
        if deadline < self.due:
            self.due = deadline
            self.engine.note_due(deadline)

    # --------------------------------------------------------------- catch-up

    # Order keys.  A train's key is (deadline, 0) until its tick is
    # resolved, then (tick, tick before + 1); an elided landing sorts
    # as (landed_at, posted_at, ...).  With int instants a landing sorts
    # below a push key iff that push's poll observes it (``_walk``'s
    # landing rule), and below (now, created + 1) iff it landed before
    # the executing event; a resolved push ran before that event iff its
    # key is <= (now, created) (``request_poll``'s rule).

    def catch_up(self) -> None:
        """Materialize every elided push and landing that ran before
        the executing event (see the module docstring for the order).
        The engine calls it once ``now`` has reached :attr:`due`."""
        engine = self.engine
        now = engine.now
        born = engine._born       # Engine.event_created_at, inlined
        created = now if born is None else born
        pushed_by = (now, created)
        landed_by = (now, created + 1)
        trains = self._trains
        landings = self._landings
        size = self.sst.row_size_bytes
        versions = self.sst._versions
        while True:
            train = None
            key = rival = _LAST
            for tr in trains.values():
                if tr[4] < rival and tr[0]._parked:  # else woken or crashed
                    if tr[4] < key:
                        rival = key
                        train = tr
                        key = tr[4]
                    else:
                        rival = tr[4]
            while landings and landings[0] < key:
                if not landings[0] < landed_by:
                    self.due = landings[0][0]
                    return
                # What QueuePair._deliver does with a row its receiver
                # rules quiet (the purity invariant: revalidate() gives
                # any that would land loud its event back).
                landed_at, posted_at, _seq, route, row, _old = heappop(landings)
                peer, _pair, qp, region, dst, copy, _rkey = route
                if dst.powered:
                    qp.delivered += 1
                    region.writes_received += 1
                    region.bytes_received += size
                    me = qp.src.node_id
                    copy[me] = row
                    versions[peer] += 1
                    waker = dst.waker
                    if waker._parked:
                        # Stamped now on the tick that observes it: every
                        # walker move of this receiver so far was keyed
                        # before this landing, so the walk starts before it.
                        if waker._quiet_log:
                            waker._stamp_quiet_log()
                        waker.on_quiet_deposit(
                            me, row, waker._walk_to(landed_at, posted_at))
            if train is None:
                break
            if train[3] is None:
                if train[2] > now:
                    break
                self._resolve(train)
                key = train[4]
                if key > rival or (landings and landings[0] < key):
                    continue    # something else comes before this push
            if key <= pushed_by:
                self._push(train)
            else:
                break
        self.due = key[0] if not landings or key < landings[0] else landings[0][0]

    def _resolve(self, train: list) -> None:
        """Find the tick of the train's next push: the first virtual
        tick at or after its deadline.  Quiet deposits that landed
        before the deadline are stamped first, so the walker only moves
        forward."""
        node, deadline = train[0], train[2]
        log = node._quiet_log
        if log and log[0][0] < deadline:
            n = 1
            while n < len(log) and log[n][0] < deadline:
                n += 1
            head = log[:n]
            del log[:n]
            head.append((deadline, -1))
            ticks = node._walk(head)
            for i in range(n):
                node.on_quiet_deposit(head[i][2], head[i][3], ticks[i])
            tick = ticks[n]
        else:
            tick = node._walk_to(deadline, -1)
        train[3] = tick
        train[4] = (tick, node._park_cursor + 1)

    def _push(self, train: list) -> None:
        """The push on the train's resolved tick: what the elided poll
        there would have done."""
        node, tick = train[0], train[3]
        node._stamp_quiet_log()
        node._walk_to(tick, tick)       # the poll on this tick ran
        node._last_commit_push = tick
        node._hb_seq += 1
        me = node.node_id
        row = _new_row(CommitRow, (node.Committed, node._hb_seq))
        sst = self.sst
        sst.copies[me][me] = row            # SharedStateTable.write_local
        sst._versions[me] += 1
        write = self.fabric.write
        sent = self._sent
        since = sst._since_signal
        size = sst.row_size_bytes
        landings = self._landings
        routes = self._routes[me]
        for route in routes:
            pair = route[1]
            since[pair] += 1
            landed_at = write(me, route[0], route[3], route[6], me, row, size,
                              False, None, 0, "control", tick)
            old = sent.get(pair)
            sent[pair] = row
            if route[4].powered:
                self._seq += 1
                heappush(landings, (landed_at, tick, self._seq, route, row, old))
        sst.pushes += len(routes)
        train[1] -= 1
        if train[1]:
            deadline = train[2] = tick + self.period
            train[3] = None
            train[4] = (deadline, 0)
        else:
            # The next push is signaled: the park deadline wakes the
            # sender for it.
            del self._trains[me]

    # ------------------------------------------------------------ revalidation

    def revalidate(self) -> None:
        """A receiver's verdict may have changed (its role, epoch or
        evictions moved, a partition was set or healed, a host crashed,
        an injector attached): stop every train whose next push is no
        longer pure, and give every elided write that would now land
        loud its landing event back."""
        engine = self.engine
        for tr in list(self._trains.values()):
            node = tr[0]
            if not node._parked:
                del self._trains[node.node_id]
            elif not self.pure_pushes(node):
                self._stop(tr)
        landings = self._landings
        if landings:
            verdicts = self.sst._quiet
            keep = []
            for entry in landings:
                landed_at, posted_at, _seq, route, row, old = entry
                peer, _pair, qp, region, _dst, copy, rkey = route
                me = qp.src.node_id
                if engine.byz is None and verdicts[peer](
                        me, copy[me] if old is None else old, row):
                    keep.append(entry)
                else:
                    engine.schedule_backdated(
                        posted_at, landed_at, qp._deliver, region, rkey, me,
                        row, self.sst.row_size_bytes, posted_at)
            if len(keep) != len(landings):
                landings[:] = keep
                heapify(landings)
        due = landings[0][0] if landings else _NEVER
        for tr in self._trains.values():
            if tr[4][0] < due:
                due = tr[4][0]
        self.due = due
        engine.note_due(due)

    def _stop(self, train: list) -> None:
        """End a train: its sender wakes for its next push."""
        node = train[0]
        del self._trains[node.node_id]
        # Its deadline (a lower bound on the tick) while unresolved: the
        # walker never runs past the present to find the tick.
        at = train[2] if train[3] is None else train[3]
        horizon = node._horizon_event
        if horizon is not None and horizon.time <= at:
            return
        if horizon is not None:
            horizon.cancel()
        # Backdated to the last tick passed, so it runs before any event
        # due then that was scheduled after the tick before the push
        # (whose wake would skip the push's tick).
        node._horizon_event = self.engine.schedule_backdated(
            node._park_cursor, at, node._horizon)
