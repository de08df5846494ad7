"""Kernel TCP/IP channels: reliable FIFO streams with per-message CPU cost.

This is the ``tcp`` backend of :mod:`repro.substrate`.  Cost model
(defaults calibrated so the TCP atomic-broadcast baselines land in the
paper's 10²–10³ µs latency band while the RDMA systems sit at ~10¹ µs):

- each send charges a syscall + kernel-stack cost on the *sender's* CPU;
- each receive charges the same on the *receiver's* CPU when its event
  loop picks the message up;
- delivery additionally pays interrupt + softirq + wakeup latency on top
  of wire time, because unlike one-sided RDMA the remote kernel must run
  before the payload is visible to userspace.

Streams are FIFO and lossless (retransmission appears as delay), so
protocol logic above this layer can rely on ordering exactly as Zab does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.engine import Engine, us
from repro.sim.process import Process
from repro.substrate.cost import CostModel
from repro.substrate.interface import Connection, Endpoint, Substrate


@dataclass
class TcpParams(CostModel):
    """Cost knobs for the kernel TCP path.

    ``wakeup_latency_ns`` models epoll/interrupt delivery: the receiving
    process is woken rather than discovering data by polling L1 like the
    RDMA receivers do.  Wire maths (``wire_bytes``,
    ``tx_serialization_ns``) come from :class:`~repro.substrate.cost.CostModel`.
    """

    backend = "tcp"

    kernel_send_cpu_ns: int = 2_200
    kernel_recv_cpu_ns: int = 2_200
    stack_latency_ns: int = 9_000   # one-way kernel stack + interrupt + softirq
    wakeup_latency_ns: int = 3_000  # scheduler wakeup of the blocked/epolling process
    propagation_ns: int = 550
    link_bandwidth_bytes_per_ns: float = 3.125
    header_bytes: int = 66          # eth + ip + tcp
    loss_prob: float = 0.0
    rto_ns: int = us(200)

    # ------------------------------------------------- uniform cost surface

    @property
    def send_cpu_ns(self) -> int:
        return self.kernel_send_cpu_ns

    @property
    def recv_cpu_ns(self) -> int:
        return self.kernel_recv_cpu_ns

    @property
    def delivery_overhead_ns(self) -> int:
        return self.stack_latency_ns

    @property
    def loss_delay_ns(self) -> int:
        return self.rto_ns


class TcpEndpoint(Endpoint):
    """One node's TCP stack: an inbox plus egress serialisation state."""

    def __init__(self, engine: Engine, process: Process, params: TcpParams):
        self.engine = engine
        self.process = process
        self.params = params
        self.inbox: deque[tuple[int, Any, int]] = deque()  # (src, payload, size)
        self.tx_free_at = 0
        self.sent = 0
        self.received = 0
        self.tx_bytes = 0
        # Cost models are frozen after substrate build, so the per-message
        # charges can be snapshotted once instead of chased through
        # self.params on every deliver/drain.
        self._recv_cpu_ns = params.kernel_recv_cpu_ns
        self._wakeup_ns = params.wakeup_latency_ns

    @property
    def node_id(self) -> int:
        """The owning process's node id."""
        return self.process.node_id

    def deliver(self, src: int, payload: Any, size: int,
                posted_at: int = 0) -> None:
        """Called by the network when a message reaches this host's kernel."""
        if self.process.crashed:
            return
        self.inbox.append((src, payload, size))
        # Poll-elision doorbell first: a parked poll loop resumes at the
        # first *regular* tick >= now.  With poll gaps shorter than the
        # wakeup latency below, that regular tick is what drains the
        # inbox in the unparked schedule too.
        self.process.doorbell(posted_at)
        # epoll/interrupt: wake the process (RDMA receivers never get this).
        self.process.wake(self._wakeup_ns)

    def drain(self, max_batch: Optional[int] = None) -> list[tuple[int, Any]]:
        """Pop pending messages, charging recv syscall CPU per message.

        Intended to be called from the owner's ``on_poll``; the CPU
        charge pushes the node's ``busy_until`` forward so heavy receive
        load genuinely costs time.
        """
        out: list[tuple[int, Any]] = []
        charge = self.process.cpu.charge
        now = self.engine.now
        recv_cpu_ns = self._recv_cpu_ns
        inbox = self.inbox
        probe = self.engine.probe
        while inbox and (max_batch is None or len(out) < max_batch):
            src, payload, _size = inbox.popleft()
            out.append((src, payload))
            self.received += 1
            charge(recv_cpu_ns)
            if probe is not None:
                probe.mark(payload, "poll_notice", now)
        return out


class TcpNetwork(Substrate):
    """All-to-all TCP connectivity between a set of processes."""

    backend = "tcp"

    def __init__(self, engine: Engine, params: Optional[TcpParams] = None):
        super().__init__(engine, params or TcpParams())
        # (src, dst) -> its stream, made on first send
        self._streams: dict[tuple[int, int], Connection] = {}
        self._loss_rng = engine.rng("tcp.loss")
        # Frozen-cost snapshots for the per-message send path.  The sum
        # is int + int, so precomputing it cannot change any timestamp.
        p = self.params
        self._send_cpu_ns = p.kernel_send_cpu_ns
        self._post_wire_ns = p.propagation_ns + p.stack_latency_ns

    def attach(self, process: Process) -> TcpEndpoint:
        """Create this process's TCP stack and register it for delivery."""
        ep = TcpEndpoint(self.engine, process, self.params)
        self.endpoints[process.node_id] = ep
        return ep

    # ------------------------------------------------------------------ send

    def send(self, src: int, dst: int, payload: Any, size_bytes: int) -> None:
        """Send one message; charges the sender's kernel CPU immediately
        (the caller is executing on the sender's CPU) and schedules
        delivery into the destination inbox."""
        byz = self.engine.byz
        if byz is not None and byz.on_net_send(self, src, dst, payload,
                                               size_bytes):
            return
        p = self.params
        src_ep = self.endpoints[src]
        if src_ep.process.crashed:
            return
        stream = self._streams.get((src, dst))
        if stream is None:
            stream = self._streams[src, dst] = Connection(
                self, src, dst, self._loss_rng)
        if stream.cut:
            self._drop_partitioned()
            return
        start = max(src_ep.process.cpu.charge(self._send_cpu_ns), src_ep.tx_free_at)
        tx_done = start + p.tx_serialization_ns(size_bytes)
        src_ep.tx_free_at = tx_done
        src_ep.sent += 1
        src_ep.tx_bytes += p.wire_bytes(size_bytes)
        deliver_at = stream.arrival(tx_done + self._post_wire_ns)
        self.engine.schedule_at(deliver_at, self._deliver, dst, src, payload,
                                size_bytes, self.engine.now)
        probe = self.engine.probe
        if probe is not None:
            # Span milestones for traced carriers (dict miss otherwise).
            probe.mark(payload, "nic_tx", tx_done)
            probe.mark(payload, "wire", tx_done + p.propagation_ns)
            probe.mark(payload, "deposit", deliver_at)

    # The inherited loop over send(), bound in this class's namespace
    # because bench/hosttrace.py wraps ``broadcast`` here by name.
    broadcast = Substrate.broadcast

    def _deliver(self, dst: int, src: int, payload: Any, size: int,
                 posted_at: int = 0) -> None:
        ep = self.endpoints.get(dst)
        if ep is not None:
            ep.deliver(src, payload, size, posted_at)

    # ------------------------------------------------------------ accounting

    def _raw_counters(self) -> dict[str, int]:
        eps = self.endpoints.values()
        return {
            "tx_bytes": sum(ep.tx_bytes for ep in eps),
            "tx_msgs": sum(ep.sent for ep in eps),
            "rx_msgs": sum(ep.received for ep in eps),
            "retransmits": sum(c.retransmits for c in self._connections),
        }
