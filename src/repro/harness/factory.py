"""Build any of the evaluated systems from a RunSpec.

:func:`build_from_spec` is the factory entry point; :func:`prepare` is
the one place a spec becomes a *running* single-group system — built,
settled, and with its ``crashes`` / ``partitions`` / ``byz`` schedules
armed relative to workload start (the farm counterpart is
:func:`repro.shard.parallel.prepare_farm`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.cluster import AcuerdoCluster
from repro.protocols.apus import ApusCluster
from repro.protocols.base import BroadcastSystem
from repro.protocols.derecho import DerechoCluster, DerechoConfig
from repro.protocols.paxos import PaxosCluster
from repro.protocols.raft import RaftCluster
from repro.protocols.zab import ZabCluster
from repro.sim.engine import Engine, ms
from repro.sim.failure import arm_faults
from repro.substrate import CostModel

#: All systems of §4, by benchmark name.
SYSTEMS = [
    "acuerdo",
    "derecho-leader",
    "derecho-all",
    "apus",
    "libpaxos",
    "zookeeper",
    "etcd",
]

#: The §5 systems the paper discusses but does not (or could not)
#: benchmark, plus the Byzantine-tolerant reliable-broadcast baselines
#: the adversary harness compares against; built the same way, used by
#: the extension benches.
EXTENSION_SYSTEMS = ["dare", "mu", "dolev", "bracha"]

#: Which substrate backend each system deploys over (the x-axis of the
#: paper's substrate-shape comparison).
SUBSTRATE_OF = {
    "acuerdo": "rdma",
    "derecho-leader": "rdma",
    "derecho-all": "rdma",
    "apus": "rdma",
    "dare": "rdma",
    "mu": "rdma",
    "libpaxos": "tcp",
    "zookeeper": "tcp",
    "etcd": "tcp",
    "dolev": "tcp",
    "bracha": "tcp",
}

#: Cluster-constructor kwarg that carries the cost model, per backend.
_PARAMS_KWARG = {"rdma": "rdma_params", "tcp": "tcp_params"}

#: How long (sim time) each system needs to elect/settle from cold.
SETTLE_MS = {
    "acuerdo": 1,
    "derecho-leader": 1,
    "derecho-all": 1,
    "apus": 1,
    "libpaxos": 1,
    "zookeeper": 8,
    "etcd": 15,
    "dolev": 1,
    "bracha": 1,
}


def _build_named(name: str, engine: Engine, n: int,
                 record_deliveries: bool = False,
                 substrate_params: Optional[CostModel] = None,
                 **kwargs) -> BroadcastSystem:
    """Instantiate (but do not start) the named system.

    ``substrate_params`` overrides the transport cost model through the
    uniform substrate surface, whatever backend the system deploys over
    (it is routed to the backend-specific constructor kwarg); per-system
    ablations can still pass ``rdma_params=`` / ``tcp_params=`` directly.
    """
    if substrate_params is not None:
        backend = SUBSTRATE_OF.get(name)
        if backend is None:
            raise ValueError(f"unknown system {name!r}; pick from "
                             f"{SYSTEMS + EXTENSION_SYSTEMS}")
        kwargs.setdefault(_PARAMS_KWARG[backend], substrate_params)
    if name == "acuerdo":
        return AcuerdoCluster(engine, n, record_deliveries=record_deliveries, **kwargs)
    if name == "derecho-leader":
        cfg = kwargs.pop("config", DerechoConfig(mode="leader"))
        return DerechoCluster(engine, n, config=cfg,
                              record_deliveries=record_deliveries, **kwargs)
    if name == "derecho-all":
        cfg = kwargs.pop("config", DerechoConfig(mode="all"))
        return DerechoCluster(engine, n, config=cfg,
                              record_deliveries=record_deliveries, **kwargs)
    if name == "apus":
        return ApusCluster(engine, n, record_deliveries=record_deliveries, **kwargs)
    if name == "libpaxos":
        return PaxosCluster(engine, n, record_deliveries=record_deliveries, **kwargs)
    if name == "zookeeper":
        return ZabCluster(engine, n, record_deliveries=record_deliveries, **kwargs)
    if name == "etcd":
        return RaftCluster(engine, n, record_deliveries=record_deliveries, **kwargs)
    if name == "dare":
        from repro.protocols.dare import DareCluster

        return DareCluster(engine, n, record_deliveries=record_deliveries, **kwargs)
    if name == "mu":
        from repro.protocols.mu import MuCluster

        return MuCluster(engine, n, record_deliveries=record_deliveries, **kwargs)
    if name == "dolev":
        from repro.protocols.dolev import DolevCluster

        return DolevCluster(engine, n, record_deliveries=record_deliveries, **kwargs)
    if name == "bracha":
        from repro.protocols.bracha import BrachaCluster

        return BrachaCluster(engine, n, record_deliveries=record_deliveries, **kwargs)
    raise ValueError(
        f"unknown system {name!r}; pick from {SYSTEMS + EXTENSION_SYSTEMS}")


def build_from_spec(spec, engine: Optional[Engine] = None,
                    record_deliveries: bool = False,
                    substrate_params: Optional[CostModel] = None,
                    **kwargs) -> BroadcastSystem:
    """Instantiate the system a :class:`~repro.harness.runspec.RunSpec`
    names — the one factory entry point.  Without an explicit
    ``engine``, a fresh one is built from the spec (seeded, span
    recorder attached if ``capture_spans``, monitor registry if
    ``check_invariants``)."""
    if engine is None:
        engine = spec.make_engine()
    return _build_named(spec.system, engine, spec.n,
                        record_deliveries=record_deliveries,
                        substrate_params=substrate_params, **kwargs)


def settle(system: BroadcastSystem, preseed: bool = True,
           timeout_ms: Optional[int] = None) -> None:
    """Start the system and wait until it is serving.

    Acuerdo can be preseeded into steady state (benchmark fast-path);
    every other system runs its real start-up protocol.
    """
    if preseed and isinstance(system, AcuerdoCluster):
        system.preseed_leader(0)
        system.start()
        return
    system.start()
    budget = timeout_ms if timeout_ms is not None else SETTLE_MS.get(system.name, 10)
    deadline = system.engine.now + ms(budget * 4)
    while system.leader_id() is None and system.engine.now < deadline:
        system.engine.run(until=system.engine.now + ms(1))
    if system.leader_id() is None:
        raise RuntimeError(f"{system.name}: no leader after settle window")


def prepare(spec, substrate_params: Optional[CostModel] = None,
            **kwargs) -> BroadcastSystem:
    """Turn ``spec`` into a serving single-group system on a fresh
    engine (``system.engine``): build, :func:`settle`, then arm the
    spec's fault plan as group 0 (:func:`~repro.sim.failure.arm_faults`).
    ``@ms`` times count from the moment this returns, which is where
    every driver starts its workload.  Empty schedules attach nothing, so a fault-free run
    stays bit-identical to the golden fingerprints."""
    system = build_from_spec(spec, substrate_params=substrate_params, **kwargs)
    settle(system)
    arm_faults(system.engine, spec.faults, {0: system})
    return system
