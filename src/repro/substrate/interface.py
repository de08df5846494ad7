"""The common transport abstraction every backend implements.

A :class:`Substrate` is one cluster-wide transport instance (the RDMA
fabric, the kernel-TCP mesh, ...).  It hands out one :class:`Endpoint`
per attached process and carries messages between them with
post/deliver/poll semantics:

- ``send`` *posts* a message on the sender's side, charging that
  backend's send-side CPU and occupying its egress link;
- the substrate *delivers* it into the destination endpoint after wire
  time, loss delay and the backend's delivery overhead;
- the owning process *polls* its endpoint (``drain``) to pick messages
  up, paying the backend's receive-side CPU charge per message.

Failure hooks (loss-as-delay, node crash, network partition) and the
trace-counter namespace (``substrate.<backend>.tx_bytes``, ``.tx_msgs``,
``.rx_msgs``, ``.retransmits``, ``.partition_drop``) are shared here so
every protocol and harness reads the same keys regardless of backend.

Backends may expose richer primitives on top — the RDMA fabric keeps
one-sided writes, rings and SSTs — but the surface in this module is
what cross-substrate code (conformance tests, cost breakdowns, the
protocol factory) is allowed to assume.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.substrate.cost import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.engine import Engine
    from repro.sim.process import Process


class Connection:
    """One direction of a reliable connection from ``src`` to ``dst``,
    the one owner of whether, in which order and how late a message
    posted on it arrives: nothing gets through while it is ``cut`` (a
    partition separates its ends, :meth:`Substrate.set_partition`), a
    loss (``loss_prob``) is ``loss_delay_ns`` of delay, counted in
    ``retransmits``, and no message overtakes an earlier one."""

    def __init__(self, substrate: "Substrate", src: int, dst: int,
                 loss_rng: random.Random):
        self.ends = (src, dst)
        self.cut = substrate._blocked(src, dst)
        substrate._connections.append(self)
        self.retransmits = 0
        self._loss_rng = loss_rng
        self._loss_prob = substrate.params.loss_prob
        self._loss_delay_ns = substrate.params.loss_delay_ns
        self._last_delivery_at = 0

    def arrival(self, deliver_at: int) -> int:
        """When a message due at ``deliver_at`` is delivered."""
        if self._loss_prob and self._loss_rng.random() < self._loss_prob:
            # Go-back-N / RTO: this message (and, through the FIFO floor
            # below, everything behind it) arrives a loss delay late.
            deliver_at += self._loss_delay_ns
            self.retransmits += 1
        deliver_at = max(deliver_at, self._last_delivery_at + 1)
        self._last_delivery_at = deliver_at
        return deliver_at


class Endpoint(abc.ABC):
    """One node's attachment to a substrate: an inbox plus egress state."""

    @property
    @abc.abstractmethod
    def node_id(self) -> int:
        """The owning process's node id."""

    @abc.abstractmethod
    def deliver(self, src: int, payload: Any, size: int) -> None:
        """Called by the substrate when a message reaches this node."""

    @abc.abstractmethod
    def drain(self, max_batch: Optional[int] = None) -> list[tuple[int, Any]]:
        """Pop pending ``(src, payload)`` messages in delivery order,
        charging this backend's per-message receive cost (if any)."""


class Substrate(abc.ABC):
    """A cluster-wide transport with unified failure and cost hooks."""

    #: short backend tag; also the middle segment of the counter namespace
    backend: str = "abstract"

    def __init__(self, engine: "Engine", params: CostModel):
        self.engine = engine
        self.params = params
        self.endpoints: dict[int, Endpoint] = {}
        self._partition: Optional[list[frozenset[int]]] = None
        self.partition_drops = 0
        self._connections: list[Connection] = []

    # ------------------------------------------------------------- wiring

    @abc.abstractmethod
    def attach(self, process: "Process") -> Endpoint:
        """Create and register ``process``'s endpoint on this substrate."""

    # ------------------------------------------------------------ messaging

    @abc.abstractmethod
    def send(self, src: int, dst: int, payload: Any, size_bytes: int) -> None:
        """Post one message from ``src`` to ``dst``; it is delivered into
        the destination endpoint after this backend's wire costs."""

    def broadcast(self, src: int, dsts: Iterable[int], payload: Any,
                  size_bytes: int) -> None:
        """Send the same message to several peers (separate unicasts, as
        both RC queue pairs and TCP connections require)."""
        for d in dsts:
            if d != src:
                self.send(src, d, payload, size_bytes)

    # -------------------------------------------------------------- failure

    def set_partition(self, *groups: Iterable[int]) -> None:
        """Partition the network: traffic crosses only within a group.

        Nodes not named in any group are isolated.  Every connection
        between two groups is ``cut`` (one made later is cut when it is
        made), and a message posted on a cut connection is dropped (on
        RDMA the reliable connection would retransmit until its retry
        budget dies; on TCP the connection stalls — from the protocol's
        viewpoint the peer is unreachable either way)."""
        self._recut([frozenset(g) for g in groups])

    def heal_partition(self) -> None:
        """Restore full connectivity."""
        self._recut(None)

    def _recut(self, partition: Optional[list[frozenset[int]]]) -> None:
        self._partition = partition
        for conn in self._connections:
            conn.cut = self._blocked(*conn.ends)

    def _blocked(self, src: int, dst: int) -> bool:
        if self._partition is None:
            return False
        return not any(src in g and dst in g for g in self._partition)

    def _drop_partitioned(self) -> None:
        """Account one message dropped at a partition boundary."""
        self.partition_drops += 1
        self.engine.trace.count(f"substrate.{self.backend}.partition_drop")

    def crash_node(self, node_id: int) -> None:
        """Take a node's transport down with its host (default: no
        transport-level state to power off)."""

    # ---------------------------------------------------------- accounting

    @abc.abstractmethod
    def _raw_counters(self) -> dict[str, int]:
        """Backend totals, un-namespaced: ``tx_bytes``, ``tx_msgs``,
        ``rx_msgs``, ``retransmits`` (plus backend extras)."""

    def counters(self) -> dict[str, int]:
        """Cluster-wide totals under the unified counter namespace, as
        the same flat dotted-name shape :meth:`Tracer.summary` returns
        (routed through the metrics registry)."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.ingest_namespaced(f"substrate.{self.backend}",
                                   self._raw_counters())
        registry.record(f"substrate.{self.backend}.partition_drop",
                        self.partition_drops)
        return registry.snapshot()

    def publish_counters(self, trace=None) -> dict[str, int]:
        """Snapshot :meth:`counters` into a tracer (default: the
        engine's), so post-run analyses read transport totals from the
        same place as protocol counters.  Called by the harness after a
        run — never from the hot path, so live trace fingerprints are
        independent of transport accounting.  Publication goes through
        the metrics registry: assignment, not increment, so publishing
        twice does not double-count."""
        from repro.obs.metrics import MetricsRegistry

        tracer = trace if trace is not None else self.engine.trace
        registry = MetricsRegistry()
        registry.merge(self.counters())
        return registry.publish(tracer)

    def total_tx_bytes(self) -> int:
        """Wire bytes sent by every endpoint (bandwidth benches)."""
        return self._raw_counters()["tx_bytes"]
