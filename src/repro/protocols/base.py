"""The common face of every atomic broadcast system in this repo.

The harness (workload clients, safety checker, Fig. 8/9 drivers) only
talks to :class:`BroadcastSystem`, so Acuerdo and the six baselines are
driven and measured by exactly the same code.  Their replica processes
share one skeleton, :class:`Replica`.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Iterator, Mapping
from typing import Any, Callable, Optional

from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.substrate.interface import Substrate

#: Signature of a commit acknowledgment: called once, at the moment the
#: message is committed at (and deliverable from) the serving node.
CommitCallback = Callable[[Any], None]


class Replica(Process):
    """One replica process of a :class:`BroadcastSystem`.

    ``cfg`` is the protocol config; its ``process`` field is copied so
    slow-node injection on one replica does not leak to the others.
    Client payloads queue in ``pending`` as ``(payload, size,
    on_commit)`` until the node's poll loop takes them.
    """

    def __init__(self, cluster: "BroadcastSystem", node_id: int, cfg: Any, name: str):
        super().__init__(cluster.engine, node_id,
                         dataclasses.replace(cfg.process), name=name)
        self.cluster = cluster
        self.cfg = cfg
        self.pending: list[tuple[Any, int, Optional[CommitCallback]]] = []

    def client_broadcast(self, payload: Any, size: int,
                         on_commit: Optional[CommitCallback] = None) -> None:
        """Enqueue a client payload for broadcast; callable from any
        context, it leaves at this node's next poll."""
        self.pending.append((payload, size, on_commit))
        # Local-state doorbell: a parked node resumes polling at the
        # first tick that would see this entry (no-op when unparked).
        self.request_poll()

    def crash(self) -> None:
        """Host crash: the process halts and its transport goes down
        with it (an RDMA NIC powers off).  ``BroadcastSystem.crash`` and
        the failure injector both land here."""
        super().crash()
        self.cluster.substrate.crash_node(self.node_id)


class DeliveryRecorder:
    """Per-node delivered-message journals used by the safety checks.

    ``sequences[n]`` is the list of payloads node ``n`` delivered, in
    delivery order.  The atomic-broadcast properties (§2.2) are asserted
    over these: every pair of sequences must be prefix-related (Total
    Order, no gaps), payloads must have been broadcast (Integrity) and
    appear at most once per node (No Duplication).

    Nodes that agree share one journal: position ``i`` of the canonical
    order holds whatever the first node to deliver an ``i``-th payload
    delivered, and a node that matches it is just a count.  A node that
    delivers something else at position ``i`` forks: it keeps its own
    list from ``i`` on.  ``sequences`` is a read-only mapping that
    assembles each node's list on access.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counts: dict[int, int] = {}
        self.sequences: Mapping[int, list[Any]] = _Sequences(self)
        self._canon: list[Any] = []
        self._forks: dict[int, tuple[int, list[Any]]] = {}  # node -> (at, own)

    def record(self, node_id: int, payload: Any) -> None:
        i = self.counts.get(node_id, 0)
        self.counts[node_id] = i + 1
        if not self.enabled:
            return
        fork = self._forks.get(node_id)
        if fork is not None:
            fork[1].append(payload)
            return
        canon = self._canon
        if i == len(canon):
            canon.append(payload)
        elif canon[i] is not payload and canon[i] != payload:
            self._forks[node_id] = (i, [payload])

    def delivered_count(self, node_id: int) -> int:
        return self.counts.get(node_id, 0)

    def _sequence(self, node_id: int) -> list[Any]:
        fork = self._forks.get(node_id)
        if fork is None:
            return self._canon[:self.counts[node_id]]
        return self._canon[:fork[0]] + fork[1]

    def _first_difference(self, a: int, b: int) -> Optional[int]:
        """First position at which nodes ``a`` and ``b`` delivered
        different payloads, or None when one is a prefix of the other."""
        n = min(self.counts[a], self.counts[b])
        at_a, own_a = self._forks.get(a, (n, ()))
        at_b, own_b = self._forks.get(b, (n, ()))
        if at_a != at_b:
            # Up to the earlier fork both hold the canonical order, and
            # a fork starts with a payload that differs from it.
            k = min(at_a, at_b)
            return k if k < n else None
        for j in range(n - at_a):
            if own_a[j] is not own_b[j] and own_a[j] != own_b[j]:
                return at_a + j
        return None

    def _at(self, node_id: int, k: int) -> Any:
        fork = self._forks.get(node_id)
        if fork is not None and k >= fork[0]:
            return fork[1][k - fork[0]]
        return self._canon[k]

    def check_total_order(self) -> None:
        """Raise AssertionError unless all sequences are prefix-related."""
        nodes = list(self.sequences)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                k = self._first_difference(a, b)
                if k is not None:
                    raise AssertionError(
                        f"total order violated at position {k}: "
                        f"{self._at(a, k)!r} != {self._at(b, k)!r}")

    def check_no_duplication(self, key: Callable[[Any], Any] = lambda p: p) -> None:
        for node, seq in self.sequences.items():
            keys = [key(p) for p in seq]
            if len(keys) != len(set(keys)):
                raise AssertionError(f"node {node} delivered a message twice")

    def check_integrity(self, broadcast: set) -> None:
        for node, seq in self.sequences.items():
            for p in seq:
                if p not in broadcast:
                    raise AssertionError(f"node {node} delivered out-of-thin-air {p!r}")


class _Sequences(Mapping):
    """``DeliveryRecorder.sequences``: node id -> delivered payloads
    (empty when recording is disabled)."""

    __slots__ = ("_rec",)

    def __init__(self, recorder: DeliveryRecorder):
        self._rec = recorder

    def __getitem__(self, node_id: int) -> list[Any]:
        rec = self._rec
        if not rec.enabled or node_id not in rec.counts:
            raise KeyError(node_id)
        return rec._sequence(node_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self._rec.counts if self._rec.enabled else ())

    def __len__(self) -> int:
        return len(self._rec.counts) if self._rec.enabled else 0

    def __repr__(self) -> str:
        return repr(dict(self))


class BroadcastSystem(abc.ABC):
    """A running atomic-broadcast deployment inside one engine.

    Lifecycle: construct → ``start()`` → feed with ``submit`` while
    running the engine → inspect ``deliveries`` / metrics.
    """

    #: short identifier used in benchmark output ("acuerdo", "zab", ...)
    name: str = "abstract"

    #: one-way client<->cluster transport latency (ns) for the closed-loop
    #: clients; RDMA systems override this with the one-sided-write cost.
    client_hop_ns: int = 14_000

    #: the transport this deployment runs over; every concrete cluster
    #: assigns its :class:`~repro.substrate.interface.Substrate` here, so
    #: harness code reads cost accounting uniformly across systems.
    substrate: Optional[Substrate] = None

    #: the replica processes by node id; every concrete cluster builds them
    nodes: dict[int, Replica]

    def __init__(self, engine: Engine, n: int, record_deliveries: bool = True):
        self.engine = engine
        self.n = n
        self.node_ids = list(range(n))
        #: consensus-group index when built inside ``engine.scoped(g)``
        #: (a :class:`~repro.shard.ShardedDeployment` shard), else None.
        self.group: Optional[int] = engine.scope_group
        # Captured scope label; spans of scoped deployments carry the
        # group tag (``shard.<g>.<system>.msg``) so multi-group traces
        # separate cleanly by shard in Perfetto.  Composed lazily in
        # span_label because subclasses may assign self.name after this.
        self._scope_label: Optional[str] = engine.scope
        self.deliveries = DeliveryRecorder(enabled=record_deliveries)
        #: callbacks ``(node_id, payload)`` invoked on every app-level
        #: delivery — the hook state-machine replication builds on.
        self.delivery_listeners: list[Callable[[int, Any], None]] = []
        probe = engine.probe
        if probe is not None:
            # Online safety monitors: each consensus group gets its own
            # monitor instances (per-shard for free under engine.scoped).
            probe.register_group(self)

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Start all replica processes (systems that need an initial
        leader or election extend this)."""
        for nd in self.nodes.values():
            nd.start()

    def processes(self) -> list[Process]:
        """All replica processes (for failure injection)."""
        return list(self.nodes.values())

    # ---------------------------------------------------------------- client

    def submit(self, payload: Any, size_bytes: int,
               on_commit: Optional[CommitCallback] = None) -> bool:
        """Hand a client payload to the current serving node.

        Returns False when no node is currently able to take requests
        (mid-election); the client retries.  ``on_commit`` fires when the
        message commits at the serving node.
        """
        ldr = self.leader_id()
        if ldr is None:
            return False
        self.obs_begin(payload)
        self.nodes[ldr].client_broadcast(payload, size_bytes, on_commit)
        return True

    @abc.abstractmethod
    def leader_id(self) -> Optional[int]:
        """Current leader/serving node, or None during elections."""

    # --------------------------------------------------------------- failure

    def crash(self, node_id: int) -> None:
        """Crash-stop a replica (see :meth:`Replica.crash`); an unknown
        ``node_id`` raises KeyError."""
        self.nodes[node_id].crash()

    def record_delivery(self, node_id: int, payload: Any) -> None:
        self.deliveries.record(node_id, payload)
        probe = self.engine.probe
        if probe is not None:
            # First app-level delivery closes the payload's span (later
            # replicas' deliveries find no open record and are no-ops),
            # and the normalized deliver event lets LogPrefixAgreement
            # check every backend's total order through this one hook.
            probe.finish(payload, self.engine.now)
            probe.note(self, "deliver", node_id, key=payload)
        for listener in self.delivery_listeners:
            listener(node_id, payload)

    # -------------------------------------------------------- observability

    def obs_begin(self, payload: Any) -> None:
        """Open a span for a client payload at submit time (no-op without
        an attached recorder).  ``submit()`` calls this on the
        accepted-for-broadcast path."""
        probe = self.engine.probe
        if probe is not None:
            # begin() records the submit timestamp itself; the first
            # segment therefore starts at submit time by construction.
            probe.begin(payload, self.engine.now, label=self.span_label)

    @property
    def span_label(self) -> str:
        """Label given to this deployment's message spans; carries the
        group tag (``shard.<g>.``) for scoped (sharded) deployments."""
        if self._scope_label is not None:
            return f"{self._scope_label}.{self.name}.msg"
        return f"{self.name}.msg"

    # ------------------------------------------------------------ inspection

    def substrate_counters(self) -> dict[str, int]:
        """Transport totals under the ``substrate.<backend>.*`` namespace
        (empty when the system has not attached a substrate)."""
        if self.substrate is None:
            return {}
        return self.substrate.counters()

    def min_delivered(self) -> int:
        """Smallest per-node delivered count across live replicas."""
        live = [p.node_id for p in self.processes() if not p.crashed]
        if not live:
            return 0
        return min(self.deliveries.delivered_count(nid) for nid in live)
