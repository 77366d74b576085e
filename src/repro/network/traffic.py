"""Traffic for the synthetic ISP: diurnal demands and shortest-path routing.

Two traffic populations drive the fleet, mirroring what the paper's SNMP
counters show for Switch:

* **external** (customer/peer) interfaces each carry an independent demand
  process: a base utilisation drawn per link, modulated by a shared
  diurnal/weekly profile plus per-link noise.  Average utilisation is low
  (≈1.3 %, Fig. 1) with day/night swings of roughly 2x;
* **internal** links carry a routed traffic matrix: symmetric demands
  between router pairs (gravity-weighted), placed on hop-count shortest
  paths.  The resulting per-link loads are what the Hypnos sleeping
  analysis (§8) consumes -- removing a link must reroute its demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro import units
from repro.network.topology import ISPNetwork, Link


@dataclass(frozen=True)
class DiurnalProfile:
    """A daily/weekly load shape shared by all demands.

    ``multiplier(t)`` is ~1 on average: nights bottom out near
    ``night_floor``, weekday afternoons peak near ``day_peak``; weekends
    are scaled down (an NREN's traffic follows campus working hours).
    """

    night_floor: float = 0.45
    day_peak: float = 1.75
    weekend_factor: float = 0.6
    peak_hour: float = 15.0

    def multiplier(self, t_s: float) -> float:
        """Deterministic load multiplier at absolute time ``t_s``."""
        day = (t_s % units.SECONDS_PER_WEEK) / units.SECONDS_PER_DAY
        hour = (t_s % units.SECONDS_PER_DAY) / units.SECONDS_PER_HOUR
        # Cosine bump centred on the peak hour.
        phase = (hour - self.peak_hour) / 24.0 * 2.0 * math.pi
        shape = 0.5 * (1.0 + math.cos(phase))
        value = self.night_floor + (self.day_peak - self.night_floor) * shape
        if day >= 5.0:  # Saturday & Sunday
            value *= self.weekend_factor
        return value

    def multipliers(self, t_s: np.ndarray,
                    weekend: Optional[bool] = None) -> np.ndarray:
        """Vectorised :meth:`multiplier`.

        ``weekend`` short-circuits the day-of-week classification when
        the caller can prove every element falls on the same side of
        the weekday/weekend split (a scalar base time plus bounded
        phase offsets).  Both branches return exactly the floats the
        element-wise ``np.where`` would have selected, so the fast path
        is bit-identical -- it just skips a second modulo pass over the
        array.
        """
        t_s = np.asarray(t_s, dtype=float)
        hour = (t_s % units.SECONDS_PER_DAY) / units.SECONDS_PER_HOUR
        phase = (hour - self.peak_hour) / 24.0 * 2.0 * np.pi
        shape = 0.5 * (1.0 + np.cos(phase))
        value = self.night_floor + (self.day_peak - self.night_floor) * shape
        if weekend is None:
            day = (t_s % units.SECONDS_PER_WEEK) / units.SECONDS_PER_DAY
            return np.where(day >= 5.0, value * self.weekend_factor, value)
        if weekend:
            return value * self.weekend_factor
        return value


@dataclass
class Demand:
    """A symmetric traffic demand between two routers."""

    src: str
    dst: str
    base_bps: float
    packet_bytes: float = 700.0  # typical IMIX-ish average

    def __post_init__(self):
        if self.base_bps < 0:
            raise ValueError(f"demand rate must be >= 0, got {self.base_bps}")


class TrafficMatrix:
    """Internal demands plus their current shortest-path routing."""

    def __init__(self, network: ISPNetwork, demands: Sequence[Demand]):
        self.network = network
        self.demands = list(demands)
        self._links_by_id: Dict[int, Link] = {
            l.link_id: l for l in network.internal_links()}
        #: demand index -> list of link ids (None when unroutable).
        self.paths: List[Optional[List[int]]] = []
        self._route_all()

    # -- routing ------------------------------------------------------------------

    def _edge_for_hop(self, graph: nx.MultiGraph, a: str, b: str,
                      loads: Optional[Dict[int, float]] = None) -> int:
        """Pick the least-loaded parallel link between two adjacent nodes."""
        keys = list(graph[a][b])
        if loads is None:
            return min(keys)
        return min(keys, key=lambda k: loads.get(k, 0.0))

    def _route_demand(self, graph: nx.MultiGraph, demand: Demand,
                      loads: Optional[Dict[int, float]] = None,
                      ) -> Optional[List[int]]:
        try:
            nodes = nx.shortest_path(graph, demand.src, demand.dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None
        return [self._edge_for_hop(graph, a, b, loads)
                for a, b in zip(nodes, nodes[1:])]

    def _route_all(self) -> None:
        graph = self.network.internal_graph()
        loads: Dict[int, float] = {}
        self.paths = []
        for demand in self.demands:
            path = self._route_demand(graph, demand, loads)
            self.paths.append(path)
            if path:
                for link_id in path:
                    loads[link_id] = loads.get(link_id, 0.0) + demand.base_bps

    def base_link_loads(self) -> Dict[int, float]:
        """Per-direction link load (bps) at base demand rates."""
        loads = {link_id: 0.0 for link_id in self._links_by_id}
        for demand, path in zip(self.demands, self.paths):
            if not path:
                continue
            for link_id in path:
                loads[link_id] += demand.base_bps
        return loads

    def reroute_without(self, removed: set) -> "TrafficMatrix":
        """A new matrix routed on the topology minus ``removed`` link ids.

        Raises ``ValueError`` if any demand becomes unroutable -- the
        sleeping algorithm must never disconnect traffic.  Demands whose
        route avoids ``removed`` keep it; the reduced topology is built
        only once some demand has to move, and each moved demand picks
        parallel links by the loads of the demands before it.
        """
        survivor = TrafficMatrix.__new__(TrafficMatrix)
        survivor.network = self.network
        survivor.demands = self.demands
        survivor._links_by_id = {
            k: v for k, v in self._links_by_id.items() if k not in removed}
        survivor.paths = []
        graph: Optional[nx.MultiGraph] = None
        loads: Dict[int, float] = {}
        for demand, old_path in zip(self.demands, self.paths):
            if old_path is not None and removed.isdisjoint(old_path):
                path = old_path  # untouched demands keep their route
            else:
                if graph is None:
                    graph = self.network.internal_graph(exclude=removed)
                path = survivor._route_demand(graph, demand, loads)
                if path is None:
                    raise ValueError(
                        f"demand {demand.src}->{demand.dst} unroutable "
                        f"without links {sorted(removed)}")
            survivor.paths.append(path)
            for link_id in path:
                loads[link_id] = loads.get(link_id, 0.0) + demand.base_bps
        return survivor

    def utilisations(self, loads: Optional[Dict[int, float]] = None,
                     ) -> Dict[int, float]:
        """Per-link utilisation (load over capacity, one direction)."""
        if loads is None:
            loads = self.base_link_loads()
        return {
            link_id: loads.get(link_id, 0.0)
            / units.gbps_to_bps(self._links_by_id[link_id].speed_gbps)
            for link_id in self._links_by_id
        }


@dataclass
class ExternalDemand:
    """The demand process of one external (customer/peer) link."""

    link_id: int
    base_utilisation: float
    noise_scale: float = 0.15
    #: Per-link phase shift so customer peaks do not all align.
    phase_shift_h: float = 0.0


class FleetTrafficModel:
    """Everything needed to assign traffic to every port at any time."""

    def __init__(self, network: ISPNetwork,
                 rng: Optional[np.random.Generator] = None,
                 mean_external_utilisation: float = 0.013,
                 n_demands: int = 1200,
                 internal_utilisation_scale: float = 1.0,
                 profile: Optional[DiurnalProfile] = None):
        self.network = network
        self.rng = rng if rng is not None else np.random.default_rng()
        self.profile = profile if profile is not None else DiurnalProfile()
        self.externals = self._build_externals(mean_external_utilisation)
        self.matrix = self._build_matrix(n_demands,
                                         internal_utilisation_scale)
        self._base_internal_loads = self.matrix.base_link_loads()
        self._external_columns: Optional[Tuple[np.ndarray, ...]] = None
        self._phase_span_s = 0.0

    # -- construction ---------------------------------------------------------------

    def _build_externals(self, mean_util: float) -> List[ExternalDemand]:
        externals = []
        for link in self.network.external_links():
            # Lognormal around the target mean: most links quiet, a few hot.
            util = float(min(0.35, self.rng.lognormal(
                mean=np.log(mean_util), sigma=0.9)))
            externals.append(ExternalDemand(
                link_id=link.link_id,
                base_utilisation=util,
                phase_shift_h=float(self.rng.uniform(-2.0, 2.0))))
        return externals

    def _build_matrix(self, n_demands: int, scale: float) -> TrafficMatrix:
        hosts = sorted(self.network.routers)
        # Gravity weights: a router's pull is its external capacity share.
        weight = {h: 1.0 for h in hosts}
        for link in self.network.external_links():
            weight[link.a.hostname] += link.speed_gbps
        w = np.array([weight[h] for h in hosts], dtype=float)
        w /= w.sum()
        demands = []
        total_capacity = sum(
            units.gbps_to_bps(l.speed_gbps)
            for l in self.network.internal_links())
        # Aim internal traffic volume at the same low utilisation regime.
        total_demand = 0.008 * scale * total_capacity / 4.0
        for _ in range(n_demands):
            i, j = self.rng.choice(len(hosts), size=2, replace=False, p=w)
            rate = float(self.rng.lognormal(
                mean=np.log(total_demand / n_demands), sigma=1.0))
            demands.append(Demand(src=hosts[int(i)], dst=hosts[int(j)],
                                  base_bps=rate))
        return TrafficMatrix(self.network, demands)

    # -- evaluation ---------------------------------------------------------------------

    def external_rates_at(self, t_s: float) -> Dict[int, float]:
        """Per-external-link offered rate (bps, each direction) at ``t_s``."""
        links = {l.link_id: l for l in self.network.external_links()}
        rates = {}
        for demand in self.externals:
            link = links[demand.link_id]
            mult = self.profile.multiplier(
                t_s + demand.phase_shift_h * units.SECONDS_PER_HOUR)
            noise = float(self.rng.lognormal(0.0, demand.noise_scale))
            rate = (demand.base_utilisation * mult * noise
                    * units.gbps_to_bps(link.speed_gbps))
            rates[demand.link_id] = min(
                rate, 0.95 * units.gbps_to_bps(link.speed_gbps))
        return rates

    def internal_rates_at(self, t_s: float) -> Dict[int, float]:
        """Per-internal-link load (bps, each direction) at ``t_s``."""
        mult = self.profile.multiplier(t_s)
        noise = float(self.rng.lognormal(0.0, 0.08))
        return {link_id: load * mult * noise
                for link_id, load in self._base_internal_loads.items()}

    def external_rates_vector(self, t_s: float) -> Tuple[np.ndarray,
                                                         np.ndarray]:
        """Vectorised :meth:`external_rates_at`: ``(link_ids, rates)``.

        Rows align with ``self.externals``.  Consumes the RNG stream
        exactly like the scalar method (one lognormal per demand, in
        list order), so scalar and vectorised simulations see identical
        noise; only the diurnal multiplier is evaluated with ``np.cos``
        instead of ``math.cos`` (sub-ulp difference).
        """
        if self._external_columns is None:
            speed = {l.link_id: l.speed_gbps
                     for l in self.network.external_links()}
            cap_bps = np.array([units.gbps_to_bps(speed[d.link_id])
                                for d in self.externals])
            phase_h = np.array([d.phase_shift_h for d in self.externals])
            # Per-demand constants folded once: the phase offset in
            # seconds and the 95 % rate cap are the same floats the
            # scalar path computes per call.
            phase_s = phase_h * units.SECONDS_PER_HOUR
            self._external_columns = (
                np.array([d.link_id for d in self.externals],
                         dtype=np.int64),
                np.array([d.base_utilisation for d in self.externals]),
                np.array([d.noise_scale for d in self.externals]),
                phase_s,
                cap_bps,
                0.95 * cap_bps,
            )
            self._phase_span_s = (
                float(np.abs(phase_s).max()) if len(phase_s) else 0.0)
        link_ids, base_util, noise_scale, phase_s, cap_bps, cap95 = \
            self._external_columns
        if len(link_ids) == 0:
            return link_ids, np.zeros(0)
        mult = self.profile.multipliers(
            t_s + phase_s, weekend=self._uniform_weekend(t_s))
        noise = self.rng.lognormal(0.0, noise_scale)
        rate = base_util * mult * noise * cap_bps
        return link_ids, np.minimum(rate, cap95)

    def _uniform_weekend(self, t_s: float) -> Optional[bool]:
        """Shared weekday/weekend flag of all demands at ``t_s``, if any.

        Demand times are ``t_s`` plus per-demand phase shifts bounded by
        ``_phase_span_s``, so when the whole ``t_s +- span`` window sits
        strictly inside one weekday or weekend stretch every demand
        classifies identically and :meth:`DiurnalProfile.multipliers`
        can skip its element-wise week modulo.  Near a boundary (or if
        the window wraps the week), returns None for the exact path.
        ``%`` is exact on non-negative floats and rounding is monotone,
        so no element can land outside the [lo, hi] window this checks.
        """
        span = self._phase_span_s
        lo = (t_s - span) % units.SECONDS_PER_WEEK
        hi = (t_s + span) % units.SECONDS_PER_WEEK
        if lo > hi:          # window wraps the Monday-00:00 boundary
            return None
        saturday = 5.0 * units.SECONDS_PER_DAY
        if lo < saturday <= hi:   # window straddles the Saturday boundary
            return None
        return lo >= saturday

    def internal_rate_factors(self, t_s: float) -> Tuple[float, float]:
        """The ``(multiplier, noise)`` pair of :meth:`internal_rates_at`.

        Lets callers holding their own per-link load arrays compute
        ``load * mult * noise`` without building the dict; draws the same
        single lognormal as the scalar method.
        """
        mult = self.profile.multiplier(t_s)
        noise = float(self.rng.lognormal(0.0, 0.08))
        return mult, noise
