"""A synthetic Tier-2 ISP network in the image of Switch.

The paper's deployment dataset comes from Switch, the Swiss NREN: 107
routers across points of presence, low average utilisation (≈1.3 %),
roughly half of all interfaces facing *external* networks (customers,
peers, transits), and transceivers accounting for ≈10 % of total power.
This module generates a fleet with those aggregate properties:

* two core PoPs (the Zurich/Geneva analogue) fully meshed with parallel
  400G links;
* regional PoPs with 2-3 aggregation routers, dual-homed to both cores
  and chained in a regional ring (the redundancy link sleeping exploits);
* access routers dual-homed within their PoP;
* external interfaces (customer/peering) on a stub peer that is always
  up;
* a few *spare* transceivers left plugged into admin-down ports -- the
  §6.2 phenomenon that partly explains the power-model offset.

Router model counts are calibrated so the fleet's total wall power lands
near the paper's ≈21.7 kW (Fig. 1) and the per-model medians near Table 1.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro import units

from repro.hardware.catalog import ROUTER_CATALOG, router_spec
from repro.hardware.router import (ExternalPeerPort, Port, VirtualRouter,
                                   connect)
from repro.hardware.transceiver import (
    PortType,
    Reach,
    TRANSCEIVER_CATALOG,
    TransceiverModel,
    compatible,
)


class LinkKind:
    """Link classification used by the sleeping analysis (§8)."""

    INTERNAL = "internal"
    EXTERNAL = "external"


@dataclass
class LinkEnd:
    """One side of a link: a router and a port index."""

    hostname: str
    port_index: int


@dataclass
class Link:
    """One network link (internal router-router, or external stub)."""

    link_id: int
    kind: str
    speed_gbps: float
    a: LinkEnd
    b: Optional[LinkEnd] = None          # None for external links
    peer_name: str = ""                   # external peer label
    #: Distance class: "pop" (same PoP), "metro", "long" -- drives optics.
    distance: str = "pop"

    @property
    def is_internal(self) -> bool:
        """Whether both ends terminate inside the ISP."""
        return self.kind == LinkKind.INTERNAL


@functools.lru_cache(maxsize=None)
def _pick_module(port_type: PortType, speed_gbps: float,
                 preferred_reach: Tuple[Reach, ...]) -> TransceiverModel:
    """Choose a catalog module for a port at a target speed.

    A module faster than the target means the port must be clocked
    down (e.g. a QSFP28 DAC run at 25G, exactly the lower-speed rows of
    Table 2 a).  Memoized: the arguments are hashable and the catalog
    never changes, so each distinct request scans it once.
    """
    candidates = [m for m in TRANSCEIVER_CATALOG.values()
                  if compatible(port_type, m)]
    if not candidates:
        raise ValueError(f"no module fits a {port_type.value} port")
    for reach in preferred_reach:
        exact = [m for m in candidates
                 if m.reach == reach and m.speed_gbps == speed_gbps]
        if exact:
            return exact[0]
    exact_any = [m for m in candidates if m.speed_gbps == speed_gbps]
    if exact_any:
        return exact_any[0]
    faster = [m for m in candidates if m.speed_gbps > speed_gbps]
    if faster:
        for reach in preferred_reach:
            match = [m for m in faster if m.reach == reach]
            if match:
                return min(match, key=lambda m: m.speed_gbps)
        return min(faster, key=lambda m: m.speed_gbps)
    raise ValueError(
        f"no module can serve {speed_gbps} G on a {port_type.value} port")


_REACH_BY_DISTANCE: Dict[str, Tuple[Reach, ...]] = {
    "pop": (Reach.DAC, Reach.SR, Reach.LR4, Reach.LR),
    "campus": (Reach.SR, Reach.CWDM4, Reach.LR4, Reach.LR, Reach.DAC),
    "metro": (Reach.LR4, Reach.LR, Reach.FR4, Reach.CWDM4),
    "long": (Reach.LR4, Reach.LR, Reach.ER, Reach.FR4),
    # Customer handoffs on access routers: roughly half copper, half fibre.
    "customer-copper": (Reach.T, Reach.LR, Reach.SR),
    "customer-fiber": (Reach.LR, Reach.SR, Reach.T),
}


@dataclass
class ISPNetwork:
    """The generated fleet: routers, PoP membership, and the link list."""

    routers: Dict[str, VirtualRouter] = field(default_factory=dict)
    pops: Dict[str, List[str]] = field(default_factory=dict)
    links: List[Link] = field(default_factory=list)

    def router(self, hostname: str) -> VirtualRouter:
        """Router by hostname."""
        try:
            return self.routers[hostname]
        except KeyError:
            raise KeyError(
                f"unknown router {hostname!r}; the fleet has "
                f"{len(self.routers)} routers")

    def port_of(self, end: LinkEnd) -> Port:
        """The physical port behind a link end."""
        return self.router(end.hostname).port(end.port_index)

    # -- views ------------------------------------------------------------------

    def internal_links(self) -> List[Link]:
        """Links with both ends inside the ISP (candidates for sleeping)."""
        return [l for l in self.links if l.is_internal]

    def external_links(self) -> List[Link]:
        """Customer / peering / transit links."""
        return [l for l in self.links if not l.is_internal]

    def internal_graph(self, exclude: Iterable[int] = ()) -> nx.MultiGraph:
        """The router-level topology over internal links.

        ``exclude`` removes links by id -- used by the sleeping algorithm
        to test connectivity after shutting links down.
        """
        excluded = set(exclude)
        graph = nx.MultiGraph()
        graph.add_nodes_from(self.routers)
        for link in self.internal_links():
            if link.link_id in excluded:
                continue
            graph.add_edge(link.a.hostname, link.b.hostname,
                           key=link.link_id, link=link)
        return graph

    def total_wall_power_w(self) -> float:
        """Instantaneous total wall power of the fleet."""
        return sum(r.wall_power_w() for r in self.routers.values())

    def pop_power_w(self) -> Dict[str, float]:
        """Instantaneous wall power per point of presence.

        The operator view behind Fig. 1's total: which sites carry the
        load (and where a (de)commissioning step happened).
        """
        return {
            pop: sum(self.routers[h].wall_power_w() for h in hosts)
            for pop, hosts in self.pops.items()
        }

    def pop_of(self, hostname: str) -> str:
        """The PoP a router is deployed in."""
        for pop, hosts in self.pops.items():
            if hostname in hosts:
                return pop
        raise KeyError(f"router {hostname!r} is not placed in any PoP")

    def total_capacity_bps(self) -> float:
        """Sum of all link capacities (one direction)."""
        return units.gbps_to_bps(sum(l.speed_gbps for l in self.links))

    def interface_stats(self) -> Dict[str, int]:
        """Counts used by the §8 external-share observation."""
        internal = sum(2 for l in self.internal_links())
        external = len(self.external_links())
        return {"internal_interfaces": internal,
                "external_interfaces": external,
                "total_interfaces": internal + external}


@dataclass(frozen=True)
class FleetConfig:
    """Composition of the synthetic Switch-like fleet.

    The default counts sum to the paper's 107 routers and are calibrated
    so the simulated total power lands near Fig. 1's ≈21.7 kW.
    """

    model_counts: Tuple[Tuple[str, int], ...] = (
        ("8201-32FH", 6),
        ("8201-24H8FH", 4),
        ("ASR-9902", 2),
        ("NCS-55A1-24H", 8),
        ("NCS-55A1-48Q6H", 6),
        ("NCS-55A1-24Q6H-SS", 12),
        ("Nexus9336-FX2", 5),
        ("ASR-9001", 6),
        ("NCS-5501-SE", 6),
        ("N540-24Z8Q2C-M", 12),
        ("N540X-8Z16G-SYS-A", 11),
        ("ASR-920-24SZ-M", 29),
    )
    n_regional_pops: int = 13
    core_core_links: int = 4
    router_noise_std_w: float = 0.25
    #: Fraction of routers that carry a spare transceiver in a down port.
    spare_fraction: float = 0.12

    @property
    def n_routers(self) -> int:
        """Total router count across every model in the fleet."""
        return sum(count for _, count in self.model_counts)


#: Which fleet role each catalog model plays.
CORE_MODELS = ("8201-32FH", "8201-24H8FH", "ASR-9902")
AGG_MODELS = ("NCS-55A1-24H", "NCS-55A1-48Q6H", "NCS-55A1-24Q6H-SS",
              "Nexus9336-FX2")
ACCESS_MODELS = ("ASR-9001", "NCS-5501-SE", "N540-24Z8Q2C-M",
                 "N540X-8Z16G-SYS-A", "ASR-920-24SZ-M")

#: External interface quota by role (drives the ≈51 % external share).
_EXTERNAL_QUOTA = {"core": (4, 7), "agg": (2, 5), "access": (3, 7)}


class WiringBuilder:
    """Shared port-and-link plumbing for topology generators.

    Both the Switch-like builder below and the synthetic multi-tier
    generator (:mod:`repro.network.synth`) assemble an
    :class:`ISPNetwork` through these primitives, and each wiring
    decision has one implementation here: which free port a link takes
    (:meth:`_free_port`), which module a port gets and whether it is
    clocked down (:meth:`_provision`), and the link bookkeeping and
    external-peer stubs (:meth:`_link`, :meth:`_external_link`).
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.network = ISPNetwork()
        self._link_ids = itertools.count(0)
        self._peer_ids = itertools.count(0)
        self._port_orders: Dict[Tuple[str, bool], Deque[Port]] = {}

    # -- port & link plumbing --------------------------------------------------------

    def _free_port(self, hostname: str,
                   slowest: bool = False) -> Optional[Port]:
        """The first unplugged port, fastest cages first (slowest first
        for customer links), ties in port order.

        Each order is sorted once per router and trimmed from the front
        as its ports get plugged; nothing unplugs a port during a build.
        """
        order = self._port_orders.get((hostname, slowest))
        if order is None:
            order = deque(sorted(self.network.router(hostname).ports,
                                 key=lambda p: p.port_type.max_speed_gbps,
                                 reverse=not slowest))
            self._port_orders[hostname, slowest] = order
        while order and order[0].plugged:
            order.popleft()
        return order[0] if order else None

    @staticmethod
    def _provision(port: Port, speed: float, distance: str) -> None:
        """Plug the module for ``distance`` at ``speed``, clock the port
        down if the module is faster, and set it admin-up."""
        module = _pick_module(port.port_type, speed,
                              _REACH_BY_DISTANCE[distance])
        port.plug(module.name)
        if module.speed_gbps != speed:
            port.set_speed(speed)
        port.set_admin(True)

    def _link(self, host_a: str, host_b: str, distance: str) -> Optional[Link]:
        """Create an internal link between two routers, if ports allow."""
        port_a = self._free_port(host_a)
        port_b = self._free_port(host_b)
        if port_a is None or port_b is None:
            return None
        speed = min(port_a.port_type.max_speed_gbps,
                    port_b.port_type.max_speed_gbps)
        self._provision(port_a, speed, distance)
        self._provision(port_b, speed, distance)
        connect(port_a, port_b)
        link = Link(
            link_id=next(self._link_ids), kind=LinkKind.INTERNAL,
            speed_gbps=speed,
            a=LinkEnd(host_a, port_a.index),
            b=LinkEnd(host_b, port_b.index),
            distance=distance)
        self.network.links.append(link)
        return link

    def _external_link(self, hostname: str, slow: bool) -> Optional[Link]:
        """Attach a customer/peer link to a router's free port."""
        port = self._free_port(hostname, slowest=slow)
        if port is None:
            return None
        if slow:
            reach_key = ("customer-copper" if self.rng.random() < 0.5
                         else "customer-fiber")
        else:
            reach_key = "metro"
        speed = port.port_type.max_speed_gbps
        self._provision(port, speed, reach_key)
        peer = ExternalPeerPort(name=f"peer-{next(self._peer_ids):04d}")
        connect(port, peer)
        link = Link(
            link_id=next(self._link_ids), kind=LinkKind.EXTERNAL,
            speed_gbps=speed, a=LinkEnd(hostname, port.index),
            peer_name=peer.name, distance="metro")
        self.network.links.append(link)
        return link


class _FleetBuilder(WiringBuilder):
    """Internal helper that assembles the Switch-like :class:`ISPNetwork`."""

    def __init__(self, config: FleetConfig, rng: np.random.Generator):
        super().__init__(rng)
        self.config = config

    # -- router creation ----------------------------------------------------------

    def build(self) -> ISPNetwork:
        core, agg, access = self._create_routers()
        self._place_pops(core, agg, access)
        self._wire_core(core)
        self._wire_regional(core)
        self._wire_access()
        self._add_external_links(core, agg, access)
        self._add_spares()
        return self.network

    def _create_routers(self):
        core: List[str] = []
        agg: List[str] = []
        access: List[str] = []
        serial = itertools.count(1)
        for model_name, count in self.config.model_counts:
            spec = router_spec(model_name)
            for _ in range(count):
                hostname = f"sw{next(serial):03d}"
                router = VirtualRouter(
                    spec, hostname=hostname,
                    rng=np.random.default_rng(self.rng.integers(2 ** 63)),
                    noise_std_w=self.config.router_noise_std_w)
                self.network.routers[hostname] = router
                if model_name in CORE_MODELS:
                    core.append(hostname)
                elif model_name in AGG_MODELS:
                    agg.append(hostname)
                else:
                    access.append(hostname)
        return core, agg, access

    def _place_pops(self, core, agg, access):
        pops = self.network.pops
        half = (len(core) + 1) // 2
        pops["pop-core-a"] = list(core[:half])
        pops["pop-core-b"] = list(core[half:])
        regional = [f"pop-r{i:02d}" for i in range(self.config.n_regional_pops)]
        for name in regional:
            pops[name] = []
        for i, hostname in enumerate(agg):
            pops[regional[i % len(regional)]].append(hostname)
        for i, hostname in enumerate(access):
            pops[regional[i % len(regional)]].append(hostname)

    # -- wiring stages ------------------------------------------------------------------

    def _wire_core(self, core: List[str]) -> None:
        pops = self.network.pops
        for pop in ("pop-core-a", "pop-core-b"):
            members = pops[pop]
            for a, b in zip(members, members[1:] + members[:1]):
                if a != b:
                    self._link(a, b, "pop")
        # Parallel long-haul links between the two core sites.  Tiny
        # fleets may have a single core router; then there is no second
        # site to connect.
        a_side = pops["pop-core-a"]
        b_side = pops["pop-core-b"]
        if not a_side or not b_side:
            return
        for i in range(self.config.core_core_links):
            self._link(a_side[i % len(a_side)], b_side[i % len(b_side)],
                       "long")

    def _regional_pops(self) -> List[str]:
        return [name for name in self.network.pops if name.startswith("pop-r")]

    def _agg_of(self, pop: str) -> List[str]:
        members = self.network.pops[pop]
        return [h for h in members
                if self.network.router(h).model_name in AGG_MODELS]

    def _wire_regional(self, core: List[str]) -> None:
        pops = self._regional_pops()
        core_a = self.network.pops["pop-core-a"]
        core_b = self.network.pops["pop-core-b"] or core_a
        for i, pop in enumerate(pops):
            agg = self._agg_of(pop)
            if not agg:
                # PoPs without an aggregation router uplink via their
                # first access router instead.
                agg = [self.network.pops[pop][0]]
            # Dual-home every regional PoP to both core sites (fleets
            # without core routers rely on the regional ring alone).
            if core_a:
                self._link(agg[0], core_a[i % len(core_a)], "long")
                self._link(agg[-1], core_b[i % len(core_b)], "long")
            # Regional ring for redundancy (the chords Hypnos can sleep).
            next_pop = pops[(i + 1) % len(pops)]
            next_agg = self._agg_of(next_pop) or [self.network.pops[next_pop][0]]
            self._link(agg[-1], next_agg[0], "metro")
            # Intra-PoP mesh between aggregation routers.
            for a, b in zip(agg, agg[1:]):
                self._link(a, b, "pop")

    def _wire_access(self) -> None:
        for pop in self._regional_pops():
            members = self.network.pops[pop]
            agg = self._agg_of(pop)
            if not agg:
                agg = members[:1]
            for hostname in members:
                if hostname in agg:
                    continue
                # Dual-home each access router within its PoP; access
                # uplinks run on short-reach optics between buildings.
                self._link(hostname, agg[0], "campus")
                self._link(hostname, agg[-1], "campus")

    def _add_external_links(self, core, agg, access) -> None:
        for role, hosts in (("core", core), ("agg", agg), ("access", access)):
            low, high = _EXTERNAL_QUOTA[role]
            for hostname in hosts:
                quota = int(self.rng.integers(low, high + 1))
                for _ in range(quota):
                    if self._external_link(hostname, slow=(role == "access")) is None:
                        break

    def _add_spares(self) -> None:
        hosts = sorted(self.network.routers)
        n_spares = max(1, int(len(hosts) * self.config.spare_fraction))
        chosen = self.rng.choice(len(hosts), size=n_spares, replace=False)
        for idx in chosen:
            router = self.network.routers[hosts[int(idx)]]
            free = [p for p in router.ports if not p.plugged]
            if not free:
                continue
            port = free[-1]
            speed = port.port_type.max_speed_gbps
            module = _pick_module(port.port_type, speed,
                                  _REACH_BY_DISTANCE["metro"])
            port.plug(module.name)  # plugged, admin-down: draws P_trx,in


def build_switch_like_network(config: Optional[FleetConfig] = None,
                              rng: Optional[np.random.Generator] = None,
                              ) -> ISPNetwork:
    """Generate the synthetic Switch-like Tier-2 fleet."""
    if config is None:
        config = FleetConfig()
    if rng is None:
        rng = np.random.default_rng()
    unknown = [name for name, _ in config.model_counts
               if name not in ROUTER_CATALOG]
    if unknown:
        raise ValueError(f"unknown router models in fleet config: {unknown}")
    return _FleetBuilder(config, rng).build()
