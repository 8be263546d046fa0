"""The federated PEMS facade: zones behind the single-PEMS API.

A :class:`FederatedPEMS` exposes the exact :class:`~repro.pems.pems.PEMS`
surface — ``create_local_erm``, ``tables``, ``queries``, ``tick`` — so
scenarios and the CLI switch between the shared engine and the sharded
federation with one constructor call.  Internally the environment is
partitioned into ``zones`` lockstep shards on the one virtual clock:

* services route to zones by consistent hashing on the service
  reference (via :class:`~repro.fed.local_erm.FederatedLocalERM`);
* relations are partitioned per zone and unioned by
  :class:`~repro.fed.relation.FederatedRelation`;
* scatterable query subtrees run inside zone registries and are merged
  by gather executors (:mod:`repro.fed.registry`);
* cross-zone discovery rides the :class:`~repro.fed.gossip.GossipRelay`
  from zone bus segments onto the coordinator bus.

Tick-listener order mirrors the single PEMS — coordinator ERM, zone
ERMs, stream sources, query processor, Local ERMs — so lockstep
federation is tuple-identical to the ``shared`` engine on the same
scenario (the differential tests pin this over 55 ticks).
"""

from __future__ import annotations

from typing import Mapping

from repro.continuous.time import VirtualClock
from repro.errors import SerenaError
from repro.fed.gossip import GossipRelay
from repro.fed.hashing import HashRing
from repro.fed.local_erm import FederatedLocalERM
from repro.fed.query_processor import FederatedQueryProcessor
from repro.fed.table_manager import FederatedTableManager
from repro.fed.zone import Zone
from repro.model.environment import PervasiveEnvironment
from repro.model.invocation_policy import InvocationPolicy
from repro.model.services import ServiceRegistry
from repro.obs.observe import Observability
from repro.pems.discovery import DiscoveryBus
from repro.pems.erm import EnvironmentResourceManager
from repro.pems.pems import PEMS, StreamSource

__all__ = ["SCENARIO_ENGINES", "FederatedPEMS", "make_pems"]

#: The engine names scenario builders and the CLI accept (see
#: :func:`make_pems`).
SCENARIO_ENGINES = ("naive", "shared", "federated", "federated-processes")


class FederatedPEMS(PEMS):
    """A PEMS partitioned into lockstep zones.

    Parameters
    ----------
    zones:
        Zone count (named ``zone-0`` … ``zone-N``) or an iterable of zone
        names.
    parallelism:
        Shard execution mode: ``None`` (lockstep, default) or
        ``"processes"`` — see
        :class:`~repro.fed.query_processor.FederatedQueryProcessor`.
    partition_by:
        Relation name → partition attribute, overriding the default
        first-SERVICE-attribute partitioning.
    """

    def __init__(
        self,
        zones: int | list[str] | tuple[str, ...] = 4,
        policy: InvocationPolicy | None = None,
        observe: "Observability | str | None" = None,
        backend: str = "row",
        parallelism: str | None = None,
        partition_by: Mapping[str, str] | None = None,
    ):
        if isinstance(zones, int):
            if zones < 1:
                raise SerenaError("a federation needs at least one zone")
            zone_names = tuple(f"zone-{i}" for i in range(zones))
        else:
            zone_names = tuple(zones)
        # Deliberately no super().__init__: same wiring, federated parts.
        # Construction order fixes tick-listener order (see module doc).
        self.obs = Observability.coerce(observe)
        self.clock = VirtualClock()
        self.bus = DiscoveryBus()
        self.bus.bind_observability(self.obs)
        registry = ServiceRegistry(policy=policy)
        registry.bind_observability(self.obs)
        self.environment = PervasiveEnvironment(registry)
        self.erm = EnvironmentResourceManager(
            self.bus, self.clock, self.environment.registry, observe=self.obs
        )
        self.ring = HashRing(zone_names)
        self.zones: dict[str, Zone] = {
            name: Zone(
                name,
                self.clock,
                policy=policy,
                observe=self.obs,
                backend=backend,
            )
            for name in zone_names
        }
        self.gossip = GossipRelay(
            self.bus, (zone.bus for zone in self.zones.values())
        )
        self._sources: list[StreamSource] = []
        self.clock.on_tick(self._run_sources)
        self.tables = FederatedTableManager(
            self.environment,
            self.clock,
            self.zones,
            self.ring,
            partition_by=partition_by,
        )
        self.queries = FederatedQueryProcessor(
            self.environment,
            self.clock,
            self.erm,
            self.tables,
            self.zones,
            engine="shared",
            observe=self.obs,
            backend=backend,
            parallelism=parallelism,
        )
        self._local_erms: dict[str, FederatedLocalERM] = {}

    # -- topology -------------------------------------------------------------------

    def create_local_erm(
        self, name: str, lease: int | None = None
    ) -> FederatedLocalERM:
        """A Local ERM facade routing registrations to zone shards."""
        if name in self._local_erms:
            return self._local_erms[name]
        local = FederatedLocalERM(name, self, lease=lease)
        self._local_erms[name] = local
        return local

    # -- introspection --------------------------------------------------------------

    @property
    def parallelism(self) -> str | None:
        return self.queries.parallelism

    def shard_summary(self) -> dict:
        """The ``.shards`` payload: per-zone state plus the scattered
        subtrees currently live at the coordinator."""
        report = self.erm.substitution_report()
        return {
            "zones": [
                self.zones[name].summary() for name in sorted(self.zones)
            ],
            "parallelism": self.parallelism,
            "scattered": self.queries.shared.scatter_summary(),
            "gossip_relayed": self.gossip.relayed,
            # Substitution happens at the coordinator registry (invocation
            # hub), but its candidates arrive from any zone via gossip —
            # surface the active bindings next to the shard state.
            "substitutions": report["bindings"],
        }

    def shutdown(self) -> None:
        """Stop shard workers (idempotent; lockstep is a no-op)."""
        self.queries.shutdown()

    def close(self) -> None:
        """Full teardown (idempotent): stop shard workers *and*
        detach the gossip relay from every zone bus segment, so no relay
        callback outlives the federation.  The subscription server's
        shutdown path calls this."""
        self.shutdown()
        self.gossip.close()

    def __repr__(self) -> str:
        mode = self.parallelism or "lockstep"
        return (
            f"FederatedPEMS({len(self.zones)} zones, {mode}, "
            f"instant={self.clock.now}, "
            f"services={len(self.environment.registry)}, "
            f"relations={len(self.environment.relation_names)})"
        )


def make_pems(
    engine: str,
    policy: InvocationPolicy | None = None,
    observe: "Observability | str | None" = None,
    backend: str = "row",
    zones: int | list[str] | tuple[str, ...] = 4,
    partition_by: Mapping[str, str] | None = None,
) -> PEMS:
    """The PEMS behind a scenario ``engine`` name.

    ``naive`` and ``shared`` build a plain :class:`PEMS` running that
    query engine; ``federated`` builds a lockstep :class:`FederatedPEMS`
    over ``zones`` and ``federated-processes`` one whose shards run in
    forked worker processes.  ``zones`` and ``partition_by`` only apply
    to the federation.  Any other name raises :class:`SerenaError`
    listing :data:`SCENARIO_ENGINES`.
    """
    if engine not in SCENARIO_ENGINES:
        raise SerenaError(
            f"unknown engine {engine!r} (expected one of "
            f"{', '.join(SCENARIO_ENGINES)})"
        )
    if not engine.startswith("federated"):
        return PEMS(engine=engine, policy=policy, observe=observe, backend=backend)
    return FederatedPEMS(
        zones=zones,
        policy=policy,
        observe=observe,
        backend=backend,
        parallelism="processes" if engine == "federated-processes" else None,
        partition_by=partition_by,
    )
