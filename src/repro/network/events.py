"""Operational events injected into fleet simulations.

The paper's traces are full of operator actions that the analyses must
cope with: transceivers removed and added (Fig. 4a, Oct 9 / Oct 31), a
flapping interface taken down with its module left seated (Oct 22-25), an
OS update that changed fan behaviour (+45 W, Fig. 8), hardware
(de)commissioning visible as steps in the network total (Fig. 1), and the
power cycles caused by installing Autopower meters (Fig. 4b, Sep 25).
Each event type here reproduces one of those actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Optional

from repro.network.topology import ISPNetwork, Link, LinkEnd, LinkKind
from repro.hardware.router import ExternalPeerPort, Port, connect, disconnect

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.network.simulation import NetworkSimulation


def port_link_hosts(network: ISPNetwork, hostname: str,
                    port_index: int) -> Optional[FrozenSet[str]]:
    """Routers whose link state one port's configuration can touch.

    The port's own router plus the router at the far end of its cable:
    flipping one end's admin state (or pulling its module) changes
    ``Port.link_up`` on *both* ends, and ``link_up`` is the only way
    another router's columns see this port.  Returns ``None`` for an
    unknown hostname or port so the caller falls back to the
    full-rebuild path (which reproduces the object path's error on
    apply).
    """
    router = network.routers.get(hostname)
    if router is None or not 0 <= port_index < len(router.ports):
        return None
    peer = router.ports[port_index].peer
    if isinstance(peer, Port):
        return frozenset((hostname, peer.router.hostname))
    return frozenset((hostname,))


def _single_host(simulation: "NetworkSimulation",
                 hostname: str) -> Optional[FrozenSet[str]]:
    """Dirty set of an event that only mutates one router's own state."""
    if hostname not in simulation.network.routers:
        return None
    return frozenset((hostname,))


@dataclass
class FleetEvent:
    """Base class: something that happens at an absolute simulation time."""

    at_s: float

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Mutate the network; called once when the sim clock passes at_s."""
        raise NotImplementedError

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """Routers whose columnar state this event invalidates.

        The vectorized engine patches exactly these routers' columns at
        the event boundary instead of rebuilding the whole fleet (the
        incremental-refresh contract, docs/PERFORMANCE.md).  ``None``
        means the event may change fleet-wide structure -- the link
        list, the scatter layout -- and forces a full rebuild; that is
        the safe default for event types that do not declare a set.
        Must be called *before* :meth:`apply` (it inspects pre-event
        wiring).
        """
        return None


@dataclass
class UnplugModule(FleetEvent):
    """An operator removes a transceiver (Fig. 4a's Oct 9 event)."""

    hostname: str = ""
    port_index: int = 0

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Shut the port, break its link, and pull the module."""
        port = simulation.network.router(self.hostname).port(self.port_index)
        port.set_admin(False)
        disconnect(port)
        port.unplug()

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """This router plus the router at the far end of the port's cable."""
        return port_link_hosts(simulation.network, self.hostname,
                               self.port_index)


@dataclass
class AddExternalInterface(FleetEvent):
    """An operator provisions a new customer/peer interface (Oct 31)."""

    hostname: str = ""
    port_index: int = 0
    trx_name: str = ""

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Plug, enable, and link a new external-facing interface."""
        network: ISPNetwork = simulation.network
        port = network.router(self.hostname).port(self.port_index)
        port.plug(self.trx_name)
        port.set_admin(True)
        peer = ExternalPeerPort(name=f"peer-event-{self.port_index}")
        connect(port, peer)
        link = Link(
            link_id=max((l.link_id for l in network.links), default=0) + 1,
            kind=LinkKind.EXTERNAL,
            speed_gbps=port.speed_gbps,
            a=LinkEnd(self.hostname, self.port_index),
            peer_name=peer.name, distance="metro")
        network.links.append(link)
        simulation.on_topology_change(new_external=link)

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """Always ``None``: growing the link list reshapes the columnar
        link/scatter layout, so only a full rebuild is correct."""
        return None


@dataclass
class SetAdminState(FleetEvent):
    """An interface is shut (or unshut) but the module stays seated.

    This is the Oct 22-25 flapping-fix event: the model -- which treats a
    counter-silent interface as unplugged -- over-predicts the power drop,
    because ``P_trx,in`` keeps flowing.
    """

    hostname: str = ""
    port_index: int = 0
    up: bool = False

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Toggle the interface's administrative state."""
        port = simulation.network.router(self.hostname).port(self.port_index)
        port.set_admin(self.up)

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """This router plus the router at the far end of the port's cable."""
        return port_link_hosts(simulation.network, self.hostname,
                               self.port_index)


@dataclass
class OsUpdate(FleetEvent):
    """An OS upgrade changes thermal management (Fig. 8: +45 W of fans)."""

    hostname: str = ""
    fan_bump_w: float = 45.0

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Apply the post-update fan-power bump to the router."""
        simulation.network.router(self.hostname).apply_os_update(
            self.fan_bump_w)

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """Only this router's fixed-power column changes."""
        return _single_host(simulation, self.hostname)


@dataclass
class PowerCycle(FleetEvent):
    """A power cycle (e.g. moving the feed onto a metering unit)."""

    hostname: str = ""

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Power-cycle the router."""
        simulation.network.router(self.hostname).power_cycle()

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """Only this router's counters (and sensor state) reset."""
        return _single_host(simulation, self.hostname)


@dataclass
class Decommission(FleetEvent):
    """A router is powered down and removed from service (Fig. 1 steps)."""

    hostname: str = ""

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Cut the router's power feed."""
        simulation.network.router(self.hostname).powered = False

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """Only this router's powered flag flips."""
        return _single_host(simulation, self.hostname)


@dataclass
class Commission(FleetEvent):
    """A previously dark router is brought (back) into service."""

    hostname: str = ""

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Restore the router's power feed."""
        simulation.network.router(self.hostname).powered = True

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """Only this router's powered flag flips."""
        return _single_host(simulation, self.hostname)


@dataclass
class AmbientChange(FleetEvent):
    """Ambient temperature shifts at one router (a cooling problem).

    §4.3 omits temperature from the model because server rooms keep it
    pseudo-constant; when that assumption breaks, the model's offset
    drifts with no configuration change -- exactly what this injects.
    """

    hostname: str = ""
    ambient_c: float = 22.0

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Set the new ambient temperature at one router."""
        simulation.network.router(self.hostname).set_ambient(self.ambient_c)

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """Only this router's thermal contribution changes."""
        return _single_host(simulation, self.hostname)


@dataclass
class HeatWave(FleetEvent):
    """Ambient temperature shifts across the whole fleet."""

    ambient_c: float = 30.0

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Set the new ambient temperature fleet-wide."""
        for router in simulation.network.routers.values():
            router.set_ambient(self.ambient_c)

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """Every router's thermal column changes -- but only router
        columns, so the (cheap) whole-fleet patch still beats a full
        rebuild of the port and link layout."""
        return frozenset(simulation.network.routers)


@dataclass
class DegradePsu(FleetEvent):
    """A PSU's conversion efficiency degrades (the §9.4 GREEN scenario).

    Capacitor aging and fan-bearing wear make supplies slowly lossier;
    the router draws more wall power for the same device power while the
    model -- calibrated against the nominal efficiency curve -- keeps
    predicting the old draw.  This is the failure mode the monitoring
    layer's PSU-health tracker exists to catch.
    """

    hostname: str = ""
    psu_index: int = 0
    efficiency_delta: float = -0.05

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Degrade one supply's efficiency curve in place."""
        psu_group = simulation.network.router(self.hostname).psu_group
        psu_group.instances[self.psu_index].apply_aging(
            self.efficiency_delta)

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """Only this router's PSU coefficient rows change."""
        return _single_host(simulation, self.hostname)


@dataclass
class DeployAutopower(FleetEvent):
    """Install an Autopower unit on a router's feed (Fig. 4b, Sep 25).

    Installation requires briefly unplugging each PSU, so the router gets
    power-cycled -- the event that shifted one PSU's self-reported power
    by 7 W in the paper.
    """

    hostname: str = ""

    def apply(self, simulation: "NetworkSimulation") -> None:
        """Install the meter (power-cycling the router as a side effect)."""
        simulation.deploy_autopower(self.hostname)

    def dirty_hosts(self, simulation: "NetworkSimulation",
                    ) -> Optional[FrozenSet[str]]:
        """Only this router is power-cycled; the new view host is picked
        up by the per-boundary view refresh either way."""
        return _single_host(simulation, self.hostname)
