"""Hardware cost model for the simulated RDMA fabric.

Defaults are calibrated to the paper's testbed (CloudLab ``xl170``:
dual-port Mellanox ConnectX-4 25 GbE, one Mellanox 2410 switch hop,
RoCE).  Anchors used for calibration:

- 25 Gb/s link  →  3.125 bytes/ns serialisation rate;
- one-sided write one-way latency ≈ 0.9–1.1 µs for small messages
  (PCIe + NIC processing + one switch hop), so that Acuerdo's
  client→leader→follower→SST-ack→commit path lands near the paper's
  ~10 µs small-message commit latency on 3 nodes;
- minimum wire message of 80 bytes (§4.1), which is what makes the
  one-write vs two-write distinction between Acuerdo and Derecho a 2×
  bandwidth effect for 10-byte payloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import us
from repro.substrate.cost import CostModel


@dataclass
class RdmaParams(CostModel):
    """Cost model knobs for NICs, links and queue pairs.

    Attributes
    ----------
    link_bandwidth_bytes_per_ns:
        Serialisation rate of each NIC's egress link (25 Gb/s default).
    propagation_ns:
        Wire + single-switch-hop propagation delay, one way.
    nic_tx_ns / nic_rx_ns:
        Per-verb processing at the sending / receiving NIC (WQE fetch,
        PCIe DMA, packet build / validate + DMA into host memory).
    doorbell_cpu_ns:
        CPU cost charged to the *poster* of a verb (userspace doorbell
        ring); this is the only CPU involvement on the send side.
    header_bytes / min_wire_bytes:
        Transport header overhead and the minimum size of any wire
        message (80 B, per §4.1).
    loss_prob:
        Probability that a wire message needs a go-back-N retransmit;
        the reliable connection recovers transparently but the message
        (and, via FIFO, everything behind it) is delayed by
        ``retransmit_timeout_ns``.
    retransmit_timeout_ns:
        NIC retransmission timeout.
    completion_ns:
        Extra latency from remote delivery to the sender-side completion
        entry (ACK propagation + CQE write).
    max_send_queue:
        Maximum outstanding (un-retired) WQEs per QP.  Selective
        signaling must request a completion often enough to keep below
        this bound — Acuerdo signals every 1000 messages (§2.1).
    """

    backend = "rdma"

    link_bandwidth_bytes_per_ns: float = 3.125
    propagation_ns: int = 900
    nic_tx_ns: int = 200
    nic_rx_ns: int = 150
    doorbell_cpu_ns: int = 80
    header_bytes: int = 36
    min_wire_bytes: int = 80
    loss_prob: float = 0.0
    retransmit_timeout_ns: int = us(12)
    # Transport ACK + CQE DMA + CQ-poll pickup.  Deliberately expensive:
    # completions are the mechanism DARE leans on per message and §5
    # blames for its latency, while selective signaling (Acuerdo) makes
    # their cost vanish into one completion per thousand writes.
    completion_ns: int = 1_500
    max_send_queue: int = 4096

    # Wire maths (``wire_bytes``, ``tx_serialization_ns``) are inherited
    # from CostModel; only the uniform accessors are backend-specific.

    @property
    def send_cpu_ns(self) -> int:
        return self.doorbell_cpu_ns

    @property
    def recv_cpu_ns(self) -> int:
        # One-sided writes land in registered memory with zero remote-CPU
        # involvement — the paper's whole point (§1, §3).
        return 0

    @property
    def delivery_overhead_ns(self) -> int:
        return self.nic_rx_ns

    @property
    def loss_delay_ns(self) -> int:
        return self.retransmit_timeout_ns
