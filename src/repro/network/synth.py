"""Deterministic multi-tier synthetic fleets (1k-100k routers).

The Switch-like generator (:mod:`repro.network.topology`) reproduces one
specific 107-router NREN.  Scaling the engine work to internet-scale
fleets needs topologies that are orders of magnitude larger while keeping
the structural properties the energy analyses depend on: a small tier-1
backbone, regional tier-2 aggregation, wide access layers, and roughly
half of all interfaces facing external networks.

This module generates such fleets deterministically:

* the **backbone** is a Waxman geometric random graph (probability of a
  link decays with distance) plus a spanning chain so it is always
  connected;
* **regions** are placed at random coordinates and dual-homed to their
  two nearest backbone routers; each region holds a couple of
  aggregation routers and an access layer dual-homed within the region;
* adjacent regions are chained in a **metro ring**, with extra chords
  accepted by the same Waxman distance rule;
* router **models** are assigned from sampled betweenness centrality on
  the backbone+aggregation graph: the most central routers get the
  core platforms, the rest aggregation platforms (the
  centrality-derived core/edge role split).

Everything derives from one ``numpy`` Generator: the same seed and
config produce a byte-identical fleet (inventory JSON and simulation
results) on every run and any worker count.  Noise is off by default so
the generated fleets stay bit-identical across both engines without
consuming per-router RNG draws during runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.hardware.catalog import ROUTER_CATALOG, router_spec
from repro.hardware.router import VirtualRouter
from repro.network.topology import ISPNetwork, WiringBuilder


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic multi-tier fleet.

    ``n_routers`` is exact: the generator distributes every router not
    on the backbone across regions of roughly ``agg_per_region +
    access_per_region`` routers each.  See docs/TOPOLOGY.md for how the
    knobs interact and which presets exist.
    """

    #: Total routers in the fleet (backbone + aggregation + access).
    n_routers: int = 1000
    #: Tier-1 backbone routers (Waxman graph + spanning chain).
    n_backbone: int = 16
    #: Core sites the backbone routers are spread across (PoP labels).
    n_core_sites: int = 4
    #: Aggregation routers per region (the tier-2 layer).
    agg_per_region: int = 2
    #: Access routers per region (approximate; drives the region count).
    access_per_region: int = 12
    #: Waxman distance-decay scale (networkx ``alpha``): larger values
    #: make long links more likely.
    waxman_alpha: float = 0.4
    #: Waxman base link probability (networkx ``beta``).
    waxman_beta: float = 0.6
    #: Extra metro chords between region pairs, as a fraction of the
    #: region count; each candidate is accepted by the Waxman rule.
    chord_fraction: float = 0.15
    #: Fraction of backbone+aggregation routers (ranked by sampled
    #: betweenness centrality) that receive core platforms.
    core_fraction: float = 0.3
    #: Sample size for the approximate betweenness computation.
    centrality_samples: int = 64
    #: Platforms cycled through per role, most-central first.
    core_models: Tuple[str, ...] = ("8201-32FH", "8201-24H8FH")
    agg_models: Tuple[str, ...] = ("NCS-55A1-48Q6H", "Nexus9336-FX2")
    access_models: Tuple[str, ...] = ("ASR-920-24SZ-M", "N540-24Z8Q2C-M")
    #: External (customer/peer) interface quota ranges per role.
    core_external: Tuple[int, int] = (4, 7)
    agg_external: Tuple[int, int] = (2, 5)
    access_external: Tuple[int, int] = (3, 7)
    #: Router sensor noise.  Zero by default: large fleets stay
    #: bit-identical across engines without per-router noise draws.
    router_noise_std_w: float = 0.0

    def models(self) -> Tuple[str, ...]:
        """Every platform name the config can instantiate."""
        return self.core_models + self.agg_models + self.access_models


#: Ready-made configs for the bench ladder, sweeps, and CI smoke runs.
SYNTH_PRESETS: Dict[str, SynthConfig] = {
    "synth-200": SynthConfig(n_routers=200, n_backbone=6, n_core_sites=2,
                             access_per_region=10),
    "synth-1k": SynthConfig(),
    "synth-10k": SynthConfig(n_routers=10_000, n_backbone=64,
                             n_core_sites=8, access_per_region=20),
    "synth-100k": SynthConfig(n_routers=100_000, n_backbone=512,
                              n_core_sites=16, access_per_region=30),
}


def synth_config(name: str) -> SynthConfig:
    """Look up a preset :class:`SynthConfig` by name."""
    try:
        return SYNTH_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown synth preset {name!r}; available: "
            f"{sorted(SYNTH_PRESETS)}")


@dataclass
class _RegionPlan:
    """One region: its routers, backbone homes, and position."""

    name: str
    agg: List[str]
    access: List[str]
    homes: Tuple[str, str]
    pos: Tuple[float, float]


@dataclass
class _TopologyPlan:
    """The abstract fleet layout, before any router object exists."""

    backbone: List[str] = field(default_factory=list)
    positions: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    backbone_edges: List[Tuple[str, str]] = field(default_factory=list)
    regions: List[_RegionPlan] = field(default_factory=list)
    ring_edges: List[Tuple[str, str]] = field(default_factory=list)


class _SynthBuilder(WiringBuilder):
    """Assembles an :class:`ISPNetwork` from a :class:`SynthConfig`."""

    def __init__(self, config: SynthConfig, rng: np.random.Generator):
        super().__init__(rng)
        self.config = config
        self._serials = itertools.count(1)

    def build(self) -> ISPNetwork:
        plan = self._plan()
        roles, model_of = self._assign_roles(plan)
        self._create_routers(plan, model_of)
        self._place_pops(plan)
        self._wire(plan)
        self._add_external_links(plan, roles)
        return self.network

    def _hostname(self) -> str:
        return f"r{next(self._serials):06d}"

    # -- planning -----------------------------------------------------------------

    def _plan(self) -> _TopologyPlan:
        config = self.config
        plan = _TopologyPlan()
        # Backbone: Waxman geometric graph over unit square positions.
        seed = int(self.rng.integers(2 ** 31))
        graph = nx.waxman_graph(config.n_backbone, beta=config.waxman_beta,
                                alpha=config.waxman_alpha, seed=seed)
        positions = nx.get_node_attributes(graph, "pos")
        nodes = sorted(graph.nodes)
        hostnames = {node: self._hostname() for node in nodes}
        plan.backbone = [hostnames[node] for node in nodes]
        for node in nodes:
            x, y = positions[node]
            plan.positions[hostnames[node]] = (float(x), float(y))
        edges = {tuple(sorted((a, b))) for a, b in graph.edges}
        # Spanning chain in coordinate order guarantees connectivity.
        chain = sorted(nodes, key=lambda n: (positions[n][0],
                                             positions[n][1], n))
        for a, b in zip(chain, chain[1:]):
            edges.add(tuple(sorted((a, b))))
        plan.backbone_edges = [(hostnames[a], hostnames[b])
                               for a, b in sorted(edges)]
        # Regions: exact split of the remaining routers.
        remaining = config.n_routers - config.n_backbone
        region_size = config.agg_per_region + config.access_per_region
        n_regions = max(1, remaining // region_size)
        base, extra = divmod(remaining, n_regions)
        region_pos = self.rng.random((n_regions, 2))
        for i in range(n_regions):
            size = base + (1 if i < extra else 0)
            n_agg = max(1, min(config.agg_per_region, size - 1))
            if size == 1:
                n_agg = 1
            agg = [self._hostname() for _ in range(n_agg)]
            access = [self._hostname() for _ in range(size - n_agg)]
            pos = (float(region_pos[i, 0]), float(region_pos[i, 1]))
            homes = self._nearest_backbone(plan, pos)
            plan.regions.append(_RegionPlan(
                name=f"region-{i:04d}", agg=agg, access=access,
                homes=homes, pos=pos))
            for hostname in agg + access:
                plan.positions[hostname] = pos
        # Metro ring plus Waxman-accepted chords between region pairs.
        regions = plan.regions
        if len(regions) > 1:
            for i, region in enumerate(regions):
                nxt = regions[(i + 1) % len(regions)]
                plan.ring_edges.append((region.agg[-1], nxt.agg[0]))
        n_chords = int(config.chord_fraction * len(regions))
        for _ in range(n_chords):
            i, j = (int(v) for v in self.rng.integers(len(regions), size=2))
            accept = self.rng.random()
            if i == j:
                continue
            d = math.dist(regions[i].pos, regions[j].pos)
            if accept < config.waxman_beta * math.exp(
                    -d / (config.waxman_alpha * math.sqrt(2.0))):
                plan.ring_edges.append((regions[i].agg[0],
                                        regions[j].agg[-1]))
        return plan

    def _nearest_backbone(self, plan: _TopologyPlan,
                          pos: Tuple[float, float]) -> Tuple[str, str]:
        """The two backbone routers closest to a region's coordinates."""
        ranked = sorted(
            plan.backbone,
            key=lambda h: (math.dist(plan.positions[h], pos), h))
        if len(ranked) == 1:
            return ranked[0], ranked[0]
        return ranked[0], ranked[1]

    # -- role & model assignment --------------------------------------------------

    def _assign_roles(self, plan: _TopologyPlan,
                      ) -> Tuple[Dict[str, str], Dict[str, str]]:
        """Centrality-derived roles and the platform for every router.

        Sampled betweenness centrality on the backbone+aggregation graph
        ranks the routers that carry transit traffic; the top
        ``core_fraction`` receive core platforms regardless of which
        tier the planner drew them in -- role follows position in the
        graph, not construction order.
        """
        config = self.config
        graph: nx.Graph = nx.Graph()
        graph.add_nodes_from(plan.backbone)
        graph.add_edges_from(plan.backbone_edges)
        for region in plan.regions:
            graph.add_nodes_from(region.agg)
            graph.add_edge(region.agg[0], region.homes[0])
            graph.add_edge(region.agg[-1], region.homes[1])
            for a, b in zip(region.agg, region.agg[1:]):
                graph.add_edge(a, b)
        graph.add_edges_from(plan.ring_edges)
        k = min(len(graph), config.centrality_samples)
        seed = int(self.rng.integers(2 ** 31))
        centrality = nx.betweenness_centrality(graph, k=k, seed=seed)
        ranked = sorted(graph.nodes, key=lambda h: (-centrality[h], h))
        n_core = max(1, int(round(config.core_fraction * len(ranked))))
        roles: Dict[str, str] = {}
        model_of: Dict[str, str] = {}
        for rank, hostname in enumerate(ranked):
            if rank < n_core:
                roles[hostname] = "core"
                models = config.core_models
            else:
                roles[hostname] = "agg"
                models = config.agg_models
            model_of[hostname] = models[rank % len(models)]
        index = 0
        for region in plan.regions:
            for hostname in region.access:
                roles[hostname] = "access"
                model_of[hostname] = config.access_models[
                    index % len(config.access_models)]
                index += 1
        return roles, model_of

    # -- construction -------------------------------------------------------------

    def _create_routers(self, plan: _TopologyPlan,
                        model_of: Dict[str, str]) -> None:
        order = list(plan.backbone)
        for region in plan.regions:
            order.extend(region.agg)
            order.extend(region.access)
        for hostname in order:
            spec = router_spec(model_of[hostname])
            self.network.routers[hostname] = VirtualRouter(
                spec, hostname=hostname,
                rng=np.random.default_rng(self.rng.integers(2 ** 63)),
                noise_std_w=self.config.router_noise_std_w)

    def _place_pops(self, plan: _TopologyPlan) -> None:
        pops = self.network.pops
        n_sites = max(1, min(self.config.n_core_sites,
                             len(plan.backbone)))
        for i in range(n_sites):
            pops[f"core-{i:02d}"] = []
        for i, hostname in enumerate(plan.backbone):
            pops[f"core-{i % n_sites:02d}"].append(hostname)
        for region in plan.regions:
            pops[region.name] = region.agg + region.access

    def _wire(self, plan: _TopologyPlan) -> None:
        for a, b in plan.backbone_edges:
            self._link(a, b, "long")
        for region in plan.regions:
            self._link(region.agg[0], region.homes[0], "long")
            if len(region.agg) > 1 or region.homes[1] != region.homes[0]:
                self._link(region.agg[-1], region.homes[1], "long")
            for a, b in zip(region.agg, region.agg[1:]):
                self._link(a, b, "pop")
            for hostname in region.access:
                self._link(hostname, region.agg[0], "campus")
                if len(region.agg) > 1:
                    self._link(hostname, region.agg[-1], "campus")
        for a, b in plan.ring_edges:
            self._link(a, b, "metro")

    def _add_external_links(self, plan: _TopologyPlan,
                            roles: Dict[str, str]) -> None:
        quota_range = {"core": self.config.core_external,
                       "agg": self.config.agg_external,
                       "access": self.config.access_external}
        for hostname in sorted(self.network.routers):
            role = roles[hostname]
            low, high = quota_range[role]
            quota = int(self.rng.integers(low, high + 1))
            for _ in range(quota):
                if self._external_link(hostname,
                                       slow=(role == "access")) is None:
                    break


def generate_synth_network(config: Optional[SynthConfig] = None,
                           rng: Optional[np.random.Generator] = None,
                           ) -> ISPNetwork:
    """Generate a deterministic multi-tier synthetic fleet.

    Same ``config`` and an identically seeded ``rng`` produce a
    byte-identical fleet: inventory JSON, simulation results, and
    columnar state all match across runs and processes.
    """
    if config is None:
        config = SynthConfig()
    if rng is None:
        rng = np.random.default_rng()
    unknown = sorted({name for name in config.models()
                      if name not in ROUTER_CATALOG})
    if unknown:
        raise ValueError(f"unknown router models in synth config: {unknown}")
    if config.n_backbone < 1:
        raise ValueError("synth fleets need at least one backbone router")
    if config.n_routers <= config.n_backbone:
        raise ValueError(
            f"n_routers ({config.n_routers}) must exceed n_backbone "
            f"({config.n_backbone})")
    return _SynthBuilder(config, rng).build()
