"""Unified transport layer: every backend behind one interface.

The paper's comparison (Fig. 8, §4.1) is between *substrate shapes* —
one-sided RDMA against kernel TCP — so this package makes the substrate
a first-class, swappable layer:

- :mod:`repro.substrate.cost` — :class:`CostModel`, the shared
  per-message cost accounting (wire maths implemented once; uniform
  send/recv CPU, delivery-overhead and loss-delay accessors);
- :mod:`repro.substrate.interface` — :class:`Endpoint` and
  :class:`Substrate`, the post/deliver/poll transport abstraction with
  unified failure hooks (loss-as-delay, crash, partition) and the
  ``substrate.<backend>.*`` counter namespace;
- the two concrete backends, re-exported here: the RDMA fabric
  (:mod:`repro.rdma`) and the kernel-TCP mesh (:mod:`repro.net`),
  plus the RDMA data structures protocols build on (rings and SSTs).

Protocols and the harness import transports from here only; adding a
backend (a SmartNIC or CXL-style cost model, say) means implementing the
two ABCs and registering a builder in :data:`BACKENDS` — no protocol
changes.

Backend re-exports resolve lazily (PEP 562): the backends themselves
import :mod:`repro.substrate.cost` / :mod:`repro.substrate.interface`,
so importing them eagerly here would be circular.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.substrate.cost import CostModel
from repro.substrate.interface import Endpoint, Substrate

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.engine import Engine

#: Lazily resolved re-exports: public name -> defining module.
_LAZY = {
    "RdmaEndpoint": "repro.rdma.fabric",
    "RdmaFabric": "repro.rdma.fabric",
    "RdmaParams": "repro.rdma.params",
    "RingBuffer": "repro.rdma.ringbuffer",
    "RingReceiver": "repro.rdma.ringbuffer",
    "SharedStateTable": "repro.rdma.sst",
    "TcpEndpoint": "repro.net.tcp",
    "TcpNetwork": "repro.net.tcp",
    "TcpParams": "repro.net.tcp",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(mod), name)


def _build_rdma(engine: "Engine", node_ids: list[int],
                params: Optional[CostModel]) -> Substrate:
    from repro.rdma.fabric import RdmaFabric

    return RdmaFabric(engine, node_ids, params)


def _build_tcp(engine: "Engine", node_ids: list[int],
               params: Optional[CostModel]) -> Substrate:
    from repro.net.tcp import TcpNetwork

    return TcpNetwork(engine, params)


#: Builders for every known backend: ``name -> (engine, node_ids, params)``.
#: ``node_ids`` pre-wires nodes for backends with connection state (RDMA
#: queue pairs); connection-per-attach backends like TCP ignore it and
#: wire lazily on :meth:`Substrate.attach`.
BACKENDS: dict[str, Callable[["Engine", list[int], Optional[CostModel]], Substrate]] = {
    "rdma": _build_rdma,
    "tcp": _build_tcp,
}


def build_substrate(backend: str, engine: "Engine",
                    node_ids: Optional[Iterable[int]] = None,
                    params: Optional[CostModel] = None) -> Substrate:
    """Instantiate the named transport backend.

    ``params`` defaults to the backend's calibrated cost model when None.
    """
    try:
        builder = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown substrate backend {backend!r}; pick from {sorted(BACKENDS)}")
    return builder(engine, list(node_ids or []), params)


__all__ = [
    "BACKENDS",
    "CostModel",
    "Endpoint",
    "RdmaEndpoint",
    "RdmaFabric",
    "RdmaParams",
    "RingBuffer",
    "RingReceiver",
    "SharedStateTable",
    "Substrate",
    "TcpEndpoint",
    "TcpNetwork",
    "TcpParams",
    "build_substrate",
]
