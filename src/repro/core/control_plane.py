"""LCMP control plane (paper §3.2, §5).

The control plane does only slow-path work: at provisioning time it reads
the topology's per-link one-way delays and configured capacities, builds the
bootstrap tables of Fig. 3 and installs them on each DCI switch's LCMP
instance, which derives each candidate route's quality score C_path from
them on first use.  It also pushes the default fusion weights
(alpha, beta) = (3, 1) for operator tuning.  Nothing here runs at packet
time.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..topology.graph import Topology
from ..topology.paths import PathSet
from .config import LCMPConfig
from .switch_tables import SwitchTables

__all__ = ["ControlPlane", "lcmp_router_factory"]

#: key identifying a candidate route: (destination DC, route DC sequence)
PathKey = Tuple[str, Tuple[str, ...]]


class ControlPlane:
    """Precomputes and installs LCMP's slow-path state."""

    def __init__(
        self,
        topology: Topology,
        pathset: PathSet,
        config: Optional[LCMPConfig] = None,
        monitor_interval_s: float = 1e-3,
    ) -> None:
        self.topology = topology
        self.pathset = pathset
        self.config = config or LCMPConfig()
        self.config.validate()
        self.monitor_interval_s = monitor_interval_s
        self._tables_cache: Optional[SwitchTables] = None

    # ------------------------------------------------------------------ #
    # table generation
    # ------------------------------------------------------------------ #
    def build_tables(self) -> SwitchTables:
        """Bootstrap the switch tables from the topology's provisioning.

        The capacity-class boundaries are proportional to the largest
        provisioned inter-DC capacity; the queue thresholds use the deepest
        inter-DC buffer; trend tables are pre-installed for every link-rate
        bucket present in the topology.
        """
        if self._tables_cache is not None:
            return self._tables_cache
        inter_links = self.topology.inter_dc_links()
        if not inter_links:
            raise ValueError("topology has no inter-DC links to provision")
        max_cap = max(spec.cap_bps for spec in inter_links)
        buffer_bytes = max(spec.buffer_bytes for spec in inter_links)
        rates = sorted({spec.cap_bps for spec in inter_links})
        self._tables_cache = SwitchTables.bootstrap(
            config=self.config,
            max_capacity_bps=max_cap,
            buffer_bytes=buffer_bytes,
            link_rates_bps=rates,
            trend_interval_s=self.monitor_interval_s,
        )
        return self._tables_cache

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self, router, src_dc: str) -> None:
        """Install tables on one LCMP router instance.

        No C_path score is computed up front: walking every candidate out
        of the switch would materialize every (src, dst) pair of the lazy
        path set at provisioning time, exactly the O(N²) enumeration
        laziness exists to avoid.  The router derives each score on demand
        from the same tables and config (:meth:`LCMPRouter._path_quality_of`
        calls ``candidate_path_quality``); the lazy/eager equivalence suite
        pins that.
        """
        router.install_tables(self.build_tables())

    def install_all(self, network) -> int:
        """Install on every LCMP router of a runtime network.

        Non-LCMP routers (baselines) are skipped.  Returns the number of
        switches provisioned.
        """
        installed = 0
        for dc, switch in network.switches.items():
            router = switch.router
            if hasattr(router, "install_tables"):
                self.install(router, dc)
                installed += 1
        return installed


def lcmp_router_factory(
    topology: Topology,
    pathset: PathSet,
    config: Optional[LCMPConfig] = None,
    monitor_interval_s: float = 1e-3,
):
    """Router factory that provisions each LCMP instance at creation time.

    This is the convenient way to plug LCMP into a
    :class:`~repro.simulator.network.RuntimeNetwork`::

        factory = lcmp_router_factory(topology, pathset, LCMPConfig())
        network = RuntimeNetwork(topology, pathset, factory)
    """
    from .lcmp_router import LCMPRouter  # local import: avoid circular import

    control_plane = ControlPlane(
        topology, pathset, config=config, monitor_interval_s=monitor_interval_s
    )

    def factory(dc: str) -> "LCMPRouter":
        router = LCMPRouter(config=control_plane.config)
        control_plane.install(router, dc)
        return router

    return factory
