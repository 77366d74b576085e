"""Vectorized fleet-simulation fast path: columnar state over NumPy arrays.

The object engine in :mod:`repro.network.simulation` advances the fleet one
Python object at a time: every step re-walks every link, every
:meth:`VirtualRouter.advance` loops over its ports, and
``total_wall_power_w`` re-sums per-port power through Python method calls.
That is fine for a handful of routers; it is two orders of magnitude too
slow for ISP-sized fleets (hundreds of routers x dozens of ports x 10^4+
steps).

This module flattens every port in the fleet into structure-of-arrays
columns -- static power, ``e_bit``/``e_pkt``, offered rx/tx rates, link-up
masks, router ownership indices -- so one simulation step becomes a few
array operations (scatter the link rates, accumulate counters, segment-sum
power per router) instead of O(ports) Python calls.

Contracts that keep the fast path exactly equivalent to the object path:

* **Objects stay the source of truth.**  Events mutate the
  :class:`~repro.hardware.router.VirtualRouter` objects exactly as in the
  object engine; the columnar state is a *cache* that is flushed to the
  objects before any event fires and refreshed afterwards (the same
  ``_mark_dirty`` philosophy as the router's own static-power cache,
  hoisted to fleet scope).  Events that declare a *dirty set* of routers
  (:meth:`~repro.network.events.FleetEvent.dirty_hosts`) get the
  incremental treatment: only those routers' columns are flushed,
  re-snapshot, and patched in place -- O(router), not O(fleet) -- while
  events that reshape the link list still force a full rebuild.  Both
  paths produce bit-identical columns.  At the end of a run all
  counters, offered traffic, and noise states are written back, so
  post-run object inspection is indistinguishable from a scalar run.
* **Identical RNG streams.**  NumPy ``Generator`` array draws consume the
  underlying bit stream exactly like the equivalent sequence of scalar
  draws, so vectorised demand noise reproduces the object path's values
  bit for bit.  Per-router draws (AR(1) ambient noise, PSU sensor noise)
  come from per-router generators and are issued in the same per-router
  order as the object path.
* **Identical arithmetic where it matters.**  Elementwise array formulas
  mirror the scalar expressions' association order, counter accumulation
  replicates ``int(prev + inc)`` truncation via ``np.floor``, and the
  DC-inversion interpolation reuses each router's own ``_inversion_grid``.
  Remaining differences (pairwise vs. sequential summation, fused
  constant factors) stay within ~1e-12 relative error; the equivalence
  suite asserts 1e-9.

Counters are held as float64 columns: exact up to 2^53, far beyond any
realistic campaign, but the fast path does not reproduce the 2^64 counter
wrap (the object engine does).  Runs long enough to wrap a 64-bit octet
counter should use ``engine="object"``.
"""

from __future__ import annotations

import time
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro import units
from repro.activity import carrying_traffic_mask
from repro.hardware.psu import QuadraticLossCurve, ScaledLossCurve, SharingPolicy
from repro.hardware.router import OfferedTraffic, Port, VirtualRouter
from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.network.events import FleetEvent
    from repro.network.topology import ISPNetwork
    from repro.obs.ledger import LedgerAccumulator
    from repro.telemetry.snmp import SnmpCollector

#: Noise correlation time of the routers' AR(1) ambient noise (matches
#: :meth:`VirtualRouter.advance`).
_NOISE_TAU_S = 600.0

M_REFRESH = metrics.counter(
    "netpower_sim_engine_refresh_total",
    "Columnar configuration rebuilds (construction + event boundaries)")
M_EVENT_BOUNDARIES = metrics.counter(
    "netpower_sim_engine_event_boundaries_total",
    "Vectorized-run steps that flushed columns to apply events")
M_PARTIAL_REFRESH = metrics.counter(
    "netpower_sim_engine_partial_refresh_total",
    "Event boundaries served by incremental column patches "
    "(no full rebuild)")
M_ROUTERS_PATCHED = metrics.counter(
    "netpower_sim_engine_router_columns_patched_total",
    "Routers whose columns were patched in place at event boundaries")
M_PATCH_SECONDS = metrics.histogram(
    "netpower_sim_engine_patch_seconds",
    "Wall time of one incremental column patch (per event boundary)",
    buckets=(1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3))

#: Module-wide switch for the incremental event-boundary path.  With it
#: off, every event boundary rebuilds the full columnar configuration --
#: the pre-incremental behaviour the equivalence suite compares against
#: (results must be bitwise identical either way).
INCREMENTAL_REFRESH: bool = True


def _collapse_curve(curve) -> Optional[Tuple[Tuple[float, ...],
                                             float, float, float]]:
    """Reduce a PSU efficiency curve to ``(scales, a, b, c)`` if possible.

    Ground-truth PSU instances are ``ScaledLossCurve`` wrappers (possibly
    nested) around the quadratic PFE600 loss model; their loss fraction is
    ``s_n * (... * (s_1 * (a + b*x + c*x^2)))``.  The scales are returned
    innermost-first so callers can apply them in the same multiplication
    order as the nested objects (bit-identical results).  Returns ``None``
    for curve types the vectorized engine cannot evaluate in closed form.
    """
    scales: List[float] = []
    while isinstance(curve, ScaledLossCurve):
        scales.append(curve.scale)
        curve = curve.base
    if isinstance(curve, QuadraticLossCurve):
        return tuple(reversed(scales)), curve.a, curve.b, curve.c
    return None


def supports_vectorized(network: "ISPNetwork") -> bool:
    """Whether every router in the fleet is expressible in columnar form.

    True for all catalog hardware: the engine needs PSU curves that
    collapse to scaled quadratics (see :func:`_collapse_curve`) and one of
    the stock sharing policies.  Exotic custom curves fall back to the
    object engine via ``engine="auto"``.
    """
    for router in network.routers.values():
        if router.psu_group.policy not in (SharingPolicy.BALANCED,
                                           SharingPolicy.SINGLE,
                                           SharingPolicy.HOT_STANDBY):
            return False
        for psu in router.psu_group.instances:
            if _collapse_curve(psu.curve) is None:
                return False
    return True


class FleetState:
    """Structure-of-arrays snapshot of every port and router in a fleet.

    Two kinds of columns live here:

    * **Dynamic state** (counters, offered traffic, noise) is owned by the
      columns while a vectorized run is in flight and written back to the
      objects via :meth:`flush_counters` / :meth:`flush_traffic` /
      :meth:`flush_noise`.  It survives :meth:`refresh`.
    * **Configuration** (static power, link-up masks, PSU coefficients,
      link wiring) is derived from the objects and rebuilt wholesale by
      :meth:`refresh` whenever an event may have mutated topology or
      config -- the fleet-level analogue of the router ``_mark_dirty``
      hooks.
    """

    def __init__(self, network, traffic, new_external_link_ids=frozenset(),
                 view_hosts: Sequence[str] = ()):
        self.network = network
        self.traffic = traffic
        self.routers: List[VirtualRouter] = list(network.routers.values())
        self.n_routers = len(self.routers)
        self.router_index: Dict[str, int] = {
            r.hostname: i for i, r in enumerate(self.routers)}
        self.ports: List[Port] = [p for r in self.routers for p in r.ports]
        self.n_ports = len(self.ports)
        counts = [len(r.ports) for r in self.routers]
        starts = np.concatenate([[0], np.cumsum(counts)])
        self._router_start = starts[:-1]
        self._router_stop = starts[1:]
        self.port_router = np.repeat(np.arange(self.n_routers), counts)

        # Configuration columns, allocated once and refilled in place by
        # refresh()/patch_routers() -- no per-refresh reallocation.
        self.static_w = np.zeros(self.n_ports)
        self.link_up = np.zeros(self.n_ports, dtype=bool)
        self.p_offset_w = np.zeros(self.n_ports)
        self.e_bit_j = np.zeros(self.n_ports)
        self.e_pkt_j = np.zeros(self.n_ports)
        self._has_truth = np.zeros(self.n_ports, dtype=bool)
        self.dyn_ok = np.zeros(self.n_ports, dtype=bool)
        self.port_powered = np.zeros(self.n_ports, dtype=bool)
        self.powered = np.zeros(self.n_routers, dtype=bool)
        self.base_fixed = np.zeros(self.n_routers)
        self.noise_std = np.zeros(self.n_routers)
        self.static_sum = np.zeros(self.n_routers)
        # Attribution split of the per-port static power (the three
        # catalog terms of static_w) plus the sleep counterfactual, and
        # their per-router sums -- consumed by the energy ledger, kept
        # current alongside static_w/static_sum either way.
        self.trx_in_w = np.zeros(self.n_ports)
        self.port_w = np.zeros(self.n_ports)
        self.trx_up_w = np.zeros(self.n_ports)
        self.sleep_w = np.zeros(self.n_ports)
        self.trx_in_sum = np.zeros(self.n_routers)
        self.port_sum = np.zeros(self.n_routers)
        self.trx_up_sum = np.zeros(self.n_routers)
        self.sleep_sum = np.zeros(self.n_routers)

        # Dynamic state, seeded from the objects once.
        self.rx_bps = np.array([p.traffic.rx_bps for p in self.ports])
        self.tx_bps = np.array([p.traffic.tx_bps for p in self.ports])
        self.packet_bytes = np.array(
            [p.traffic.packet_bytes for p in self.ports])
        self.noise = np.array([r._noise_state for r in self.routers])
        # Between configuration boundaries the per-step kernels work on
        # compact copies of the active ports' dynamic state (see
        # _refresh_active_cache); these flags track whether those copies
        # hold updates not yet spilled back into the full-width columns.
        self._traffic_dirty = False
        self._counters_dirty = False
        self._cache_ap: Optional[np.ndarray] = None
        self.snapshot_counters()
        self.refresh(new_external_link_ids, view_hosts)

    # -- dynamic state <-> objects ------------------------------------------------

    def snapshot_counters(self,
                          hostnames: Optional[Sequence[str]] = None) -> None:
        """Load counter columns from the Port objects (they are authoritative
        across events: a power cycle zeroes them on the object).

        With ``hostnames``, only those routers' ports are re-read --
        counters are integral and below 2^53, so the float columns of
        untouched routers already hold the objects' exact values.
        """
        self._spill_counters()
        if hostnames is None:
            self.c_rx_oct = np.array(
                [float(p.counters.rx_octets) for p in self.ports])
            self.c_tx_oct = np.array(
                [float(p.counters.tx_octets) for p in self.ports])
            self.c_rx_pkt = np.array(
                [float(p.counters.rx_packets) for p in self.ports])
            self.c_tx_pkt = np.array(
                [float(p.counters.tx_packets) for p in self.ports])
            return
        for host in hostnames:
            r = self.router_index[host]
            for f in range(self._router_start[r], self._router_stop[r]):
                counters = self.ports[f].counters
                self.c_rx_oct[f] = float(counters.rx_octets)
                self.c_tx_oct[f] = float(counters.tx_octets)
                self.c_rx_pkt[f] = float(counters.rx_packets)
                self.c_tx_pkt[f] = float(counters.tx_packets)

    def flush_counters(self, hostnames: Optional[Sequence[str]] = None) -> None:
        """Write counter columns back into the Port objects.

        The full flush only visits the active ports: every other port's
        counters never advance (see :meth:`_refresh_links`), so its
        column still equals the object's value -- every configuration
        boundary flushes under the epoch that advanced the counters
        before the active set can change.
        """
        self._spill_counters()
        if hostnames is None:
            indices = self._active_ports.tolist()
        else:
            indices = []
            for host in hostnames:
                r = self.router_index[host]
                indices.extend(range(self._router_start[r],
                                     self._router_stop[r]))
        for f in indices:
            counters = self.ports[f].counters
            counters.rx_octets = int(self.c_rx_oct[f])
            counters.tx_octets = int(self.c_tx_oct[f])
            counters.rx_packets = int(self.c_rx_pkt[f])
            counters.tx_packets = int(self.c_tx_pkt[f])

    def counters_view(self, hostname: str) -> Tuple[np.ndarray, np.ndarray,
                                                    np.ndarray, np.ndarray]:
        """Read-only counter slices for one router's ports, in port order.

        Returns ``(rx_octets, tx_octets, rx_packets, tx_packets)`` views
        of the full-width columns (compact copies spilled first), so an
        SNMP poll can read a detailed host's counters without the
        object-write-back round trip.  The floats are integral below
        2^53; ``int()`` of an entry is the object counter's exact value.
        """
        self._spill_counters()
        i = self.router_index[hostname]
        rows = slice(int(self._router_start[i]), int(self._router_stop[i]))
        return (self.c_rx_oct[rows], self.c_tx_oct[rows],
                self.c_rx_pkt[rows], self.c_tx_pkt[rows])

    def flush_traffic(self, flat_indices: Optional[Sequence[int]] = None) -> None:
        """Write offered-traffic columns back into the Port objects."""
        self._spill_traffic()
        if flat_indices is None:
            flat_indices = self._linked_flat
        for f in flat_indices:
            self.ports[f].traffic = OfferedTraffic(
                rx_bps=float(self.rx_bps[f]), tx_bps=float(self.tx_bps[f]),
                packet_bytes=float(self.packet_bytes[f]))

    def flush_noise(self, hostnames: Optional[Sequence[str]] = None) -> None:
        """Write the AR(1) noise states back into the routers."""
        if hostnames is None:
            for i, router in enumerate(self.routers):
                router._noise_state = float(self.noise[i])
            return
        for host in hostnames:
            i = self.router_index[host]
            self.routers[i]._noise_state = float(self.noise[i])

    def flush_all(self) -> None:
        """Full write-back: counters, traffic, and noise."""
        self.flush_counters()
        self.flush_traffic()
        self.flush_noise()

    # -- compact active-port working set -------------------------------------------

    def _spill_traffic(self) -> None:
        """Scatter the compact offered-traffic copies back into the
        full-width columns (no-op unless a step has run since the last
        spill or cache rebuild)."""
        if not self._traffic_dirty:
            return
        ap = self._cache_ap
        self.rx_bps[ap] = self._ap_rx
        self.tx_bps[ap] = self._ap_tx
        self._traffic_dirty = False

    def _spill_counters(self) -> None:
        """Scatter the compact counter copies back into the full-width
        columns (no-op unless a step has run since the last spill or
        cache rebuild)."""
        if not self._counters_dirty:
            return
        ap = self._cache_ap
        self.c_rx_oct[ap] = self._ap_c_rx_oct
        self.c_tx_oct[ap] = self._ap_c_tx_oct
        self.c_rx_pkt[ap] = self._ap_c_rx_pkt
        self.c_tx_pkt[ap] = self._ap_c_tx_pkt
        self._counters_dirty = False

    def _refresh_active_cache(self) -> None:
        """(Re)build the compact per-active-port working set.

        Called at the end of every :meth:`refresh` and
        :meth:`patch_routers`, i.e. at configuration boundaries only.
        The per-step kernels (:meth:`apply_traffic`,
        :meth:`advance_counters`, :meth:`wall_power`) then run entirely
        on these length-``len(_active_ports)`` arrays: configuration
        columns are gathered once here instead of once per step, and
        the dynamic state (offered traffic, counters) lives compactly
        between boundaries, spilled back by :meth:`_spill_traffic` /
        :meth:`_spill_counters` before any full-width read.  Every
        cached value is a pure gather of the full-width columns, so the
        step arithmetic is element-for-element identical to the
        full-width formulation.
        """
        self._spill_traffic()
        self._spill_counters()
        ap = self._active_ports
        self._cache_ap = ap
        # Configuration gathers (invalidated by refresh/patch only).
        self._ap_link_up = self.link_up[ap]
        self._ap_powered = self.port_powered[ap]
        self._ap_dyn_ok = self.dyn_ok[ap]
        self._ap_p_offset = self.p_offset_w[ap]
        self._ap_e_bit = self.e_bit_j[ap]
        self._ap_e_pkt = self.e_pkt_j[ap]
        # Packet sizes are constant between boundaries (the scatter
        # ports are pinned to FLEET_PACKET_BYTES in _refresh_links, the
        # rest keep their seeded values), so the pps denominator and
        # octet frame factors are too.
        pb = self.packet_bytes[ap]
        self._ap_denom = units.BITS_PER_BYTE * (pb + units.L_HEADER_BYTES)
        self._ap_frame = pb + units.ETHERNET_HEADER_BYTES
        # Compact dynamic state, authoritative until the next spill.
        self._ap_rx = self.rx_bps[ap]
        self._ap_tx = self.tx_bps[ap]
        self._ap_c_rx_oct = self.c_rx_oct[ap]
        self._ap_c_tx_oct = self.c_tx_oct[ap]
        self._ap_c_rx_pkt = self.c_rx_pkt[ap]
        self._ap_c_tx_pkt = self.c_tx_pkt[ap]
        # External-link admin state, hoisted out of apply_traffic; when
        # every external link is up the per-step masking is the
        # identity and is skipped wholesale.
        self._ext_link_up = self.link_up[self.ext_a]
        self._ext_all_up = bool(self._ext_link_up.all())
        self._ext_any_new = bool(self.ext_is_new.any())
        self._step_cache: Optional[Tuple[np.ndarray, np.ndarray,
                                         np.ndarray]] = None

    # -- configuration rebuild ------------------------------------------------------

    def refresh(self,
                new_external_link_ids: FrozenSet[int] = frozenset(),
                view_hosts: Sequence[str] = ()) -> None:
        """Rebuild every configuration column from the object model.

        Called once at construction and again after any event fires --
        the invalidation contract is "any object mutation invalidates the
        whole columnar config", which costs O(ports + links) on the rare
        event steps and keeps the hot loop free of staleness checks.
        """
        M_REFRESH.inc()
        self._refresh_ports()
        self._refresh_routers()
        self._refresh_psus()
        self._refresh_links(new_external_link_ids)
        self._refresh_views(view_hosts)
        self._refresh_active_cache()

    def _patch_port(self, f: int) -> None:
        """Recompute one port's configuration columns from its object."""
        port = self.ports[f]
        s_in, s_port, s_up = port.static_components()
        self.trx_in_w[f] = s_in
        self.port_w[f] = s_port
        self.trx_up_w[f] = s_up
        # Same accumulation chain as Port.static_power_w(), so the
        # column equals the pre-split value bit for bit.
        static = 0.0
        static += s_in
        static += s_port
        static += s_up
        self.static_w[f] = static
        self.sleep_w[f] = port.sleep_savings_w()
        self.link_up[f] = port.link_up
        truth = port.class_truth()
        if truth is None:
            self._has_truth[f] = False
            self.p_offset_w[f] = 0.0
            self.e_bit_j[f] = 0.0
            self.e_pkt_j[f] = 0.0
        else:
            self._has_truth[f] = True
            self.p_offset_w[f] = truth.p_offset_w
            self.e_bit_j[f] = truth.e_bit_j
            self.e_pkt_j[f] = truth.e_pkt_j

    def _refresh_ports(self) -> None:
        for f in range(self.n_ports):
            self._patch_port(f)
        np.logical_and(self.link_up, self._has_truth, out=self.dyn_ok)
        self.static_sum = np.bincount(self.port_router,
                                      weights=self.static_w,
                                      minlength=self.n_routers)
        self.trx_in_sum = np.bincount(self.port_router,
                                      weights=self.trx_in_w,
                                      minlength=self.n_routers)
        self.port_sum = np.bincount(self.port_router,
                                    weights=self.port_w,
                                    minlength=self.n_routers)
        self.trx_up_sum = np.bincount(self.port_router,
                                      weights=self.trx_up_w,
                                      minlength=self.n_routers)
        self.sleep_sum = np.bincount(self.port_router,
                                     weights=self.sleep_w,
                                     minlength=self.n_routers)

    def _patch_router_scalars(self, i: int) -> None:
        """Recompute one router's scalar columns from its object.

        ``(p_base + fan_bump) + thermal`` matches the association order
        of ``VirtualRouter.wall_referred_power_w``.
        """
        router = self.routers[i]
        self.powered[i] = router.powered
        self.base_fixed[i] = ((router.spec.p_base_w + router.fan_bump_w)
                              + router.thermal_power_w())
        self.noise_std[i] = router.noise_std_w

    def _refresh_routers(self) -> None:
        for i in range(self.n_routers):
            self._patch_router_scalars(i)
        np.take(self.powered, self.port_router, out=self.port_powered)
        # Routers with ambient noise enabled: the only ones whose private
        # RNG is drawn per step, so advance_noise skips the rest (the
        # object path's noise_std_w > 0 guard skips the same draws).
        self._noise_idx = [i for i in range(self.n_routers)
                           if self.noise_std[i] > 0.0]
        # Per-router wall->DC inversion grids (reuse each router's own
        # lazily built grid so interpolation matches np.interp on it).
        # The grid depends only on the *nominal* PSU group, which is a
        # pure function of the router model, so routers of one model
        # share a single grid pair and the batched inversion works on
        # one model group at a time instead of a dense (routers x grid)
        # matrix.
        grid_by_model: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        members: Dict[str, List[int]] = {}
        for i, router in enumerate(self.routers):
            cached = grid_by_model.get(router.spec.name)
            if router._inversion_grid is None:
                if cached is None:
                    router._dc_from_wall_referred(0.0)
                else:
                    router._inversion_grid = cached
            if cached is None:
                grid_by_model[router.spec.name] = router._inversion_grid
            members.setdefault(router.spec.name, []).append(i)
        self._grid_groups: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (np.array(members[name], dtype=np.int64),
             grid_by_model[name][0], grid_by_model[name][1])
            for name in grid_by_model]

    def _psu_rows_of(self, i: int) -> List[Tuple[float, Tuple[float, ...],
                                                 float, float, float,
                                                 float, bool]]:
        """Coefficient rows ``(cap, scales, a, b, c, div, zero)`` for one
        router's PSUs under its sharing policy."""
        router = self.routers[i]
        group = router.psu_group
        n = len(group.instances)
        rows = []
        for j, psu in enumerate(group.instances):
            collapsed = _collapse_curve(psu.curve)
            if collapsed is None:
                raise ValueError(
                    f"{router.hostname}: PSU curve "
                    f"{type(psu.curve).__name__} is not vectorizable; "
                    f"run with engine='object'")
            scales, a, b, c = collapsed
            if group.policy == SharingPolicy.BALANCED:
                div, zero = float(n), False
            elif j == 0:
                div, zero = 1.0, False
            elif group.policy == SharingPolicy.HOT_STANDBY:
                div, zero = 1.0, True      # powered but idle
            else:                          # SINGLE: spare draws nothing
                continue
            rows.append((psu.capacity_w, scales, a, b, c, div, zero))
        return rows

    def _refresh_psus(self) -> None:
        rows_router: List[int] = []
        rows_cap: List[float] = []
        rows_scales: List[Tuple[float, ...]] = []
        rows_a: List[float] = []
        rows_b: List[float] = []
        rows_c: List[float] = []
        rows_div: List[float] = []
        rows_zero: List[bool] = []
        row_start = np.zeros(self.n_routers, dtype=np.int64)
        row_stop = np.zeros(self.n_routers, dtype=np.int64)
        for i in range(self.n_routers):
            row_start[i] = len(rows_router)
            for cap, scales, a, b, c, div, zero in self._psu_rows_of(i):
                rows_router.append(i)
                rows_cap.append(cap)
                rows_scales.append(scales)
                rows_a.append(a)
                rows_b.append(b)
                rows_c.append(c)
                rows_div.append(div)
                rows_zero.append(zero)
            row_stop[i] = len(rows_router)
        self._psu_row_start = row_start
        self._psu_row_stop = row_stop
        self.psu_router = np.array(rows_router, dtype=np.int64)
        self.psu_cap = np.array(rows_cap)
        # Scale chain padded with exact 1.0 so every row multiplies in the
        # same nesting order as its ScaledLossCurve stack.
        depth = max((len(s) for s in rows_scales), default=0)
        self.psu_scales = np.ones((len(rows_scales), depth))
        for row, scales in enumerate(rows_scales):
            self.psu_scales[row, :len(scales)] = scales
        self.psu_a = np.array(rows_a)
        self.psu_b = np.array(rows_b)
        self.psu_c = np.array(rows_c)
        self.psu_div = np.array(rows_div)
        self.psu_zero = np.array(rows_zero, dtype=bool)

    def _flat_of(self, hostname: str, port_index: int) -> int:
        return int(self._router_start[self.router_index[hostname]]
                   + port_index)

    def _refresh_links(self, new_external_link_ids) -> None:
        """Columnise the link list.

        ``scatter_ports``/``scatter_src`` replay the object engine's
        per-link traffic application as one fancy assignment: entries are
        emitted in link-list order (both ends of an internal link, then
        the local end of an external link), so a port referenced by two
        links -- possible when a freed port is re-provisioned while a
        stale link lingers in the list -- resolves to the same last-writer
        as the object loop.
        """
        int_rows: List[Tuple[int, int, float, int]] = []   # a, b, cap95, id
        ext_rows: List[Tuple[int, float, bool]] = []       # a, cap, is_new
        scatter_ports: List[int] = []
        scatter_src: List[int] = []
        ext_ids: List[int] = []
        for link in self.network.links:
            fa = self._flat_of(link.a.hostname, link.a.port_index)
            if link.is_internal:
                src = len(int_rows)
                fb = self._flat_of(link.b.hostname, link.b.port_index)
                int_rows.append((fa, fb,
                                 0.95 * units.gbps_to_bps(link.speed_gbps),
                                 link.link_id))
                scatter_ports.extend((fa, fb))
                scatter_src.extend((src, src))
            else:
                src = len(ext_rows)
                ext_rows.append((fa, units.gbps_to_bps(link.speed_gbps),
                                 link.link_id in new_external_link_ids))
                ext_ids.append(link.link_id)
                scatter_ports.append(fa)
                scatter_src.append(~src)    # ones' complement marks external
        self.int_a = np.array([r[0] for r in int_rows], dtype=np.int64)
        self.int_b = np.array([r[1] for r in int_rows], dtype=np.int64)
        self.int_cap95 = np.array([r[2] for r in int_rows])
        self.ext_a = np.array([r[0] for r in ext_rows], dtype=np.int64)
        self.ext_cap = np.array([r[1] for r in ext_rows])
        self.ext_is_new = np.array([r[2] for r in ext_rows], dtype=bool)
        self.scatter_ports = np.array(scatter_ports, dtype=np.int64)
        src = np.array(scatter_src, dtype=np.int64)
        # Map external rows (encoded as ~row) past the internal block.
        self.scatter_src = np.where(src >= 0, src, len(int_rows) + ~src)
        # Base internal loads aligned to the internal-link rows.
        base_loads = self.traffic._base_internal_loads
        self.int_loads = np.array(
            [base_loads.get(r[3], 0.0) for r in int_rows])
        # Demand list -> external-row scatter for the traffic model.
        row_of = {link_id: row for row, link_id in enumerate(ext_ids)}
        self.ext_demand_rows = np.array(
            [row_of[d.link_id] for d in self.traffic.externals],
            dtype=np.int64)
        self._linked_flat = sorted(set(scatter_ports))
        self._linked_set = frozenset(self._linked_flat)
        # Ports that can ever carry traffic during this configuration:
        # the scatter targets, plus any port whose object held a nonzero
        # offered rate when the columns were (re)built.  Every other
        # port's dynamic power is exactly 0.0 and its counters never
        # move, so the per-step kernels skip them wholesale -- the same
        # floats as full-width arithmetic, a fraction of the bandwidth.
        seeded = np.nonzero(carrying_traffic_mask(self.rx_bps,
                                                  self.tx_bps))[0]
        self._active_ports = np.union1d(
            self.scatter_ports, seeded).astype(np.int64)
        self._active_router = self.port_router[self._active_ports]
        # Linked ports always carry the fleet packet mix; pinning the
        # column here (instead of re-writing the same constant every
        # apply_traffic) is what lets the active cache precompute the
        # pps denominators.  Nothing reads packet sizes between a
        # refresh and the next apply_traffic, so the write point is
        # unobservable.
        self.packet_bytes[self.scatter_ports] = 700.0  # FLEET_PACKET_BYTES
        # Scatter targets as positions within the active-port set (the
        # active set contains every scatter port by construction).
        self._scatter_pos = np.searchsorted(
            self._active_ports, self.scatter_ports)
        # Step scratch buffers, reused every step.
        self._rates_buf = np.empty(len(self.int_a) + len(self.ext_a))
        self._values_buf = np.empty(len(self.scatter_ports))

    def _refresh_views(self, view_hosts: Sequence[str]) -> None:
        """Ports whose objects must track columnar traffic every step.

        Autopower meters read ``router.wall_power_w`` off the object, and
        step observers (the fleet monitor) may read object state of the
        routers they watch, so those routers keep their Port objects'
        offered traffic in sync (see :meth:`sync_views`).
        """
        linked = self._linked_set
        self._view_routers: List[Tuple[int, VirtualRouter, List[int]]] = []
        for host in view_hosts:
            i = self.router_index[host]
            flats = [f for f in range(self._router_start[i],
                                      self._router_stop[i]) if f in linked]
            self._view_routers.append((i, self.routers[i], flats))

    def sync_views(self) -> None:
        """Flush traffic + noise of the view routers to their objects."""
        for i, router, flats in self._view_routers:
            self.flush_traffic(flats)
            router._noise_state = float(self.noise[i])

    # -- incremental refresh ---------------------------------------------------------

    def patch_routers(self, hostnames: Sequence[str]) -> None:
        """Patch the configuration columns of the named routers in place.

        The incremental counterpart of :meth:`refresh`: the port, router,
        and PSU columns of exactly these routers are recomputed from
        their objects, and everything else -- including the link/scatter
        layout, which no patchable event can change -- stays untouched.
        The result is bit-identical to a full :meth:`refresh` because
        every patched value is a pure function of the router's own
        object state, and the per-router static sum replays
        ``np.bincount``'s sequential accumulation order.
        """
        M_ROUTERS_PATCHED.inc(len(hostnames))
        for host in hostnames:
            i = self.router_index[host]
            start = int(self._router_start[i])
            stop = int(self._router_stop[i])
            for f in range(start, stop):
                self._patch_port(f)
            np.logical_and(self.link_up[start:stop],
                           self._has_truth[start:stop],
                           out=self.dyn_ok[start:stop])
            # np.bincount accumulates weights one float64 addition at a
            # time in index order; a running scalar sum over the
            # router's ports is the identical chain of additions.
            acc = 0.0
            acc_in = 0.0
            acc_port = 0.0
            acc_up = 0.0
            acc_sleep = 0.0
            for f in range(start, stop):
                acc += float(self.static_w[f])
                acc_in += float(self.trx_in_w[f])
                acc_port += float(self.port_w[f])
                acc_up += float(self.trx_up_w[f])
                acc_sleep += float(self.sleep_w[f])
            self.static_sum[i] = acc
            self.trx_in_sum[i] = acc_in
            self.port_sum[i] = acc_port
            self.trx_up_sum[i] = acc_up
            self.sleep_sum[i] = acc_sleep
            self._patch_router_scalars(i)
            self.port_powered[start:stop] = self.powered[i]
            self._patch_psu_rows(i)
        self._refresh_active_cache()

    def _patch_psu_rows(self, i: int) -> None:
        """Recompute one router's PSU coefficient rows in place.

        PSU aging (``DegradePsu``) can deepen a curve's scale chain; the
        shared scale matrix is widened with exact-1.0 columns when
        needed, which multiplies identically to a full rebuild's
        padding.
        """
        rows = self._psu_rows_of(i)
        r0 = int(self._psu_row_start[i])
        r1 = int(self._psu_row_stop[i])
        if len(rows) != r1 - r0:
            raise ValueError(
                f"{self.routers[i].hostname}: PSU row count changed "
                f"({r1 - r0} -> {len(rows)}); a sharing-policy change "
                f"mid-run requires a full refresh()")
        depth = max((len(r[1]) for r in rows), default=0)
        if depth > self.psu_scales.shape[1]:
            pad = np.ones((self.psu_scales.shape[0],
                           depth - self.psu_scales.shape[1]))
            self.psu_scales = np.concatenate([self.psu_scales, pad], axis=1)
        for k, (cap, scales, a, b, c, div, zero) in enumerate(rows):
            row = r0 + k
            self.psu_cap[row] = cap
            self.psu_scales[row, :] = 1.0
            self.psu_scales[row, :len(scales)] = scales
            self.psu_a[row] = a
            self.psu_b[row] = b
            self.psu_c[row] = c
            self.psu_div[row] = div
            self.psu_zero[row] = zero

    def memory_footprint(self) -> Dict[str, float]:
        """Bytes held by the columnar arrays (the object fleet excluded).

        ``bytes_total`` sums every NumPy column plus the shared
        per-model inversion grids; ``bytes_per_router`` divides by fleet
        size -- the figure the bench report tracks so the columnar
        footprint provably stays linear in fleet size.
        """
        total = 0
        for name in sorted(vars(self)):
            value = vars(self)[name]
            if isinstance(value, np.ndarray):
                total += value.nbytes
        for indices, wall_grid, dc_grid in self._grid_groups:
            total += indices.nbytes + wall_grid.nbytes + dc_grid.nbytes
        return {"bytes_total": float(total),
                "bytes_per_router": total / max(1, self.n_routers)}

    # -- one simulation step, vectorized ----------------------------------------------

    def apply_traffic(self, t_s: float) -> float:
        """Vectorised mirror of ``NetworkSimulation._apply_traffic``.

        Consumes the traffic model's RNG exactly like the object path
        (externals first, then the internal factor) and returns total
        external ingress bps.
        """
        _, demand_rates = self.traffic.external_rates_vector(t_s)
        mult, noise = self.traffic.internal_rate_factors(t_s)
        rates = self._rates_buf
        n_int = len(self.int_a)
        # External rows are assembled in place in the tail of the shared
        # rates buffer; the masked assignments write exactly the floats
        # the equivalent np.where chains would select.
        ext_rates = rates[n_int:]
        ext_rates.fill(0.0)
        if len(self.ext_demand_rows):
            ext_rates[self.ext_demand_rows] = demand_rates
        if self._ext_any_new:
            seed = (ext_rates == 0.0) & self.ext_is_new
            ext_rates[seed] = (0.02 * self.ext_cap)[seed]
        if not self._ext_all_up:
            ext_rates[~self._ext_link_up] = 0.0
        int_rates = rates[:n_int]
        np.multiply(self.int_loads, mult, out=int_rates)
        np.multiply(int_rates, noise, out=int_rates)
        np.minimum(int_rates, self.int_cap95, out=int_rates)
        values = np.take(rates, self.scatter_src, out=self._values_buf)
        self._ap_rx[self._scatter_pos] = values
        self._ap_tx[self._scatter_pos] = values
        self._traffic_dirty = True
        return float(ext_rates.sum())

    def advance_counters(self, dt_s: float) -> None:
        """Accumulate counters for one step (mirrors ``Port.advance``).

        Only the active ports (see :meth:`_refresh_links`) are touched:
        every other port carries zero traffic for the whole
        configuration, so its increment is exactly 0.0 and ``floor`` of
        its (integral) counter is the identity -- skipping it is
        bit-identical to the full-width update.
        """
        rx = self._ap_rx
        tx = self._ap_tx
        rx_tx = rx + tx
        active = (self._ap_link_up & self._ap_powered & (rx_tx > 0.0))
        denom = self._ap_denom
        rx_pps = rx / denom
        tx_pps = tx / denom
        frame = self._ap_frame
        zero = 0.0
        rx_dt = rx_pps * dt_s
        tx_dt = tx_pps * dt_s
        # np.floor replicates the object path's int(prev + inc) truncation
        # (counters are non-negative and integral below 2^53); in-place
        # add-then-floor computes the same floor(prev + inc).
        c = self._ap_c_rx_oct
        np.add(c, np.where(active, rx_dt * frame, zero), out=c)
        np.floor(c, out=c)
        c = self._ap_c_tx_oct
        np.add(c, np.where(active, tx_dt * frame, zero), out=c)
        np.floor(c, out=c)
        c = self._ap_c_rx_pkt
        np.add(c, np.where(active, rx_dt, zero), out=c)
        np.floor(c, out=c)
        c = self._ap_c_tx_pkt
        np.add(c, np.where(active, tx_dt, zero), out=c)
        np.floor(c, out=c)
        self._counters_dirty = True
        # Hand the shared intermediates to wall_power (always the next
        # call in the step loop); consumed once, never stale.
        self._step_cache = (rx_tx, rx_pps, tx_pps)

    def advance_noise(self, rho: float, innovation_std: np.ndarray) -> None:
        """One AR(1) noise update per powered router (same draws as
        ``VirtualRouter.advance``; one scalar draw per router keeps each
        router's private RNG stream identical to the object path).  Only
        routers with noise enabled are visited -- the object path's
        ``noise_std_w > 0`` guard skips exactly the same draws."""
        noise = self.noise
        routers = self.routers
        for i in self._noise_idx:
            router = routers[i]
            if router.powered:
                noise[i] = (rho * noise[i]
                            + float(router.rng.normal(
                                0.0, innovation_std[i])))

    def wall_power(self,
                   components: Optional[np.ndarray] = None) -> np.ndarray:
        """Instantaneous wall power of every router, including noise.

        The dynamic term is evaluated over the active ports only (see
        :meth:`advance_counters`); inactive ports contribute exactly 0.0
        in the full-width formula, and adding 0.0 never changes a
        partial sum, so the per-router segment sums are bit-identical.

        With ``components`` (a ``(n_routers, len(COMPONENTS))`` buffer,
        see :mod:`repro.obs.ledger`), the attribution split is written
        into it without changing the returned power by a single bit: the
        dynamic term decomposes as ``np.where(mask, (a + b) + c, 0) ==
        (np.where(mask, a, 0) + np.where(mask, b, 0)) + np.where(mask,
        c, 0)`` elementwise, so the masked total is the exact float the
        fused expression produces.
        """
        rx = self._ap_rx
        tx = self._ap_tx
        cache = self._step_cache
        self._step_cache = None
        if cache is None:
            denom = self._ap_denom
            rx_tx = rx + tx
            total_pps = rx / denom + tx / denom
        else:
            rx_tx, rx_pps, tx_pps = cache
            total_pps = rx_pps + tx_pps
        mask = self._ap_dyn_ok & carrying_traffic_mask(rx, tx)
        if components is None:
            dyn = np.where(
                mask,
                (self._ap_p_offset + self._ap_e_bit * rx_tx)
                + self._ap_e_pkt * total_pps,
                0.0)
        else:
            off = np.where(mask, self._ap_p_offset, 0.0)
            bit = np.where(mask, self._ap_e_bit * rx_tx, 0.0)
            pkt = np.where(mask, self._ap_e_pkt * total_pps, 0.0)
            dyn = (off + bit) + pkt
        dyn_sum = np.bincount(self._active_router, weights=dyn,
                              minlength=self.n_routers)
        wall_ref = (self.base_fixed + self.static_sum) + dyn_sum
        dc = self._dc_from_wall_referred(wall_ref)
        device = np.maximum(0.0, dc + self.noise)
        wall = self._psu_wall(device)
        result = np.where(self.powered, wall, 0.0)
        if components is not None:
            # Column order matches repro.obs.ledger.COMPONENTS.  Every
            # component is zeroed where the router is unpowered, like
            # the returned wall power.
            powered = self.powered
            components[:, 0] = np.where(powered, self.base_fixed, 0.0)
            components[:, 1] = np.where(powered, self.trx_in_sum, 0.0)
            components[:, 2] = np.where(powered, self.port_sum, 0.0)
            components[:, 3] = np.where(powered, self.trx_up_sum, 0.0)
            components[:, 4] = np.where(powered, np.bincount(
                self._active_router, weights=off,
                minlength=self.n_routers), 0.0)
            components[:, 5] = np.where(powered, np.bincount(
                self._active_router, weights=bit,
                minlength=self.n_routers), 0.0)
            components[:, 6] = np.where(powered, np.bincount(
                self._active_router, weights=pkt,
                minlength=self.n_routers), 0.0)
            components[:, 7] = np.where(powered, dc - wall_ref, 0.0)
            components[:, 8] = np.where(powered, device - dc, 0.0)
            components[:, 9] = np.where(powered, wall - device, 0.0)
            components[:, 10] = np.where(powered, self.sleep_sum, 0.0)
        return result

    def _dc_from_wall_referred(self, wall_ref: np.ndarray) -> np.ndarray:
        """Batched equivalent of ``VirtualRouter._dc_from_wall_referred``.

        Works one model group at a time (routers of a model share one
        inversion grid): ``np.searchsorted(side="left")`` counts grid
        points strictly below each value -- exactly the dense form's
        ``(grids < wall).sum(axis=1)`` -- so the interpolation arithmetic
        is element-for-element identical at a fraction of the memory
        traffic.
        """
        dc = np.empty(self.n_routers)
        for indices, wall_grid, dc_grid in self._grid_groups:
            w = wall_ref[indices]
            idx = np.clip(np.searchsorted(wall_grid, w, side="left") - 1,
                          0, len(wall_grid) - 2)
            w0 = wall_grid[idx]
            w1 = wall_grid[idx + 1]
            d0 = dc_grid[idx]
            d1 = dc_grid[idx + 1]
            out = ((d1 - d0) / (w1 - w0)) * (w - w0) + d0
            out = np.where(w < wall_grid[0], dc_grid[0], out)
            dc[indices] = np.where(w >= wall_grid[-1], dc_grid[-1], out)
        return dc

    def _psu_wall(self, device_w: np.ndarray) -> np.ndarray:
        """Per-router wall power through the PSU curves (``PSUGroup.wall_power``)."""
        share = np.where(self.psu_zero, 0.0,
                         device_w[self.psu_router] / self.psu_div)
        if np.any(share > self.psu_cap * 1.05):
            worst = int(np.argmax(share / self.psu_cap))
            raise ValueError(
                f"PSU overloaded: asked for {share[worst]:.1f} W out of a "
                f"{self.psu_cap[worst]:.0f} W supply")
        positive = share > 0.0
        x = share / self.psu_cap
        loss_frac = (self.psu_a + self.psu_b * x) + self.psu_c * x ** 2
        idle_in = self.psu_a * self.psu_cap
        for k in range(self.psu_scales.shape[1]):
            loss_frac = self.psu_scales[:, k] * loss_frac
            idle_in = self.psu_scales[:, k] * idle_in
        safe = np.where(positive, x + loss_frac, 1.0)
        eff = np.where(positive, x / safe, 1.0)
        active_in = share + (share / np.where(positive, eff, 1.0) - share)
        psu_in = np.where(positive, active_in, idle_in)
        return np.bincount(self.psu_router, weights=psu_in,
                           minlength=self.n_routers)


class VectorizedEngine:
    """Drives one :class:`NetworkSimulation` run through the fast path.

    Mirrors ``NetworkSimulation.run``'s step loop exactly -- events, then
    traffic, then counter/noise advance, then power sampling, SNMP polls
    and Autopower ticks -- but with all O(ports) work columnar.
    """

    def __init__(self, simulation):
        self.sim = simulation
        #: Captured at construction so one run is internally consistent
        #: even if the module flag is toggled mid-run (tests do).
        self.incremental = INCREMENTAL_REFRESH
        self.state = FleetState(
            simulation.network, simulation.traffic,
            new_external_link_ids=simulation._new_external_link_ids,
            view_hosts=simulation._view_hosts())

    def run_steps(self, n_steps: int, step_s: float,
                  pending: Sequence["FleetEvent"],
                  collector: "SnmpCollector",
                  snmp_period_s: float, detailed_hosts: Sequence[str],
                  grid: np.ndarray, total_power: np.ndarray,
                  total_traffic: np.ndarray,
                  ledger: Optional["LedgerAccumulator"] = None) -> None:
        """Advance the fleet ``n_steps`` columnar steps in place.

        Mirrors the object engine's stepping contract exactly --
        events at step boundaries, SNMP polling cadence, observer and
        Autopower hooks -- filling the caller's pre-allocated
        ``grid`` / ``total_power`` / ``total_traffic`` columns.  With a
        ``ledger``, each step additionally writes the attribution split
        into the ledger's buffer (see :meth:`FleetState.wall_power`);
        the wall-power floats are unchanged either way.
        """
        sim = self.sim
        state = self.state
        rho = float(np.exp(-step_s / _NOISE_TAU_S))
        innovation_std = state.noise_std * float(
            np.sqrt(max(0.0, 1 - rho ** 2)))
        next_poll_s = sim.clock_s
        event_idx = 0
        hostnames = [r.hostname for r in state.routers]
        # Step latencies are collected locally and handed to the
        # histogram in one batched observe_many after the loop, so the
        # hot path never crosses the instrument layer per step.
        from repro.network.simulation import (M_EVENTS, M_SNMP_POLLS,
                                              M_STEP_SECONDS, StepSnapshot)
        from repro.obs import tracing
        from repro.obs.ledger import COMPONENTS
        # Kernel spans resolve to a shared no-op context while tracing
        # is disabled; timing stays in the tracer side-channel and
        # never touches simulation state.
        span = tracing.span
        observing = metrics.enabled()
        observers = sim.observers
        step_durations: List[float] = []
        patch_durations: List[float] = []

        for step in range(n_steps):
            if observing:
                # netpower: ignore[NP-DET-001] -- wall-clock here only
                # feeds the step-latency histogram (an observability
                # side-channel); it never reaches simulation state or
                # any deterministic report.
                step_t0 = time.perf_counter()
            t = sim.clock_s
            if event_idx < len(pending) and pending[event_idx].at_s <= t:
                # Event boundary: hand authority back to the objects,
                # apply, then refresh the columnar config -- patched in
                # place when every event declares its dirty routers,
                # rebuilt wholesale when any event reshapes the links.
                M_EVENT_BOUNDARIES.inc()
                boundary: List["FleetEvent"] = []
                while (event_idx < len(pending)
                       and pending[event_idx].at_s <= t):
                    boundary.append(pending[event_idx])
                    event_idx += 1
                dirty: Optional[set] = set() if self.incremental else None
                if dirty is not None:
                    for event in boundary:
                        declared = event.dirty_hosts(sim)
                        if declared is None:
                            dirty = None
                            break
                        dirty.update(declared)
                if dirty is None:
                    with span("kernel.refresh"):
                        state.flush_counters()
                        state.flush_noise()
                        for event in boundary:
                            M_EVENTS.labels(
                                type=type(event).__name__).inc()
                            event.apply(sim)
                        state.snapshot_counters()
                        state.refresh(sim._new_external_link_ids,
                                      sim._view_hosts())
                else:
                    if observing:
                        # netpower: ignore[NP-DET-001] -- wall-clock here
                        # only feeds the patch-latency histogram; it
                        # never reaches simulation state.
                        patch_t0 = time.perf_counter()
                    hosts = sorted(dirty)
                    with span("kernel.patch_routers"):
                        state.flush_counters(hosts)
                        state.flush_noise(hosts)
                        for event in boundary:
                            M_EVENTS.labels(
                                type=type(event).__name__).inc()
                            event.apply(sim)
                        state.snapshot_counters(hosts)
                        state.patch_routers(hosts)
                        state._refresh_views(sim._view_hosts())
                    M_PARTIAL_REFRESH.inc()
                    if observing:
                        # netpower: ignore[NP-DET-001] -- same
                        # side-channel as patch_t0 above.
                        patch_dt = time.perf_counter() - patch_t0
                        patch_durations.append(patch_dt)
                innovation_std = state.noise_std * float(
                    np.sqrt(max(0.0, 1 - rho ** 2)))
            with span("kernel.apply_traffic"):
                ingress = state.apply_traffic(t)
            with span("kernel.advance_counters"):
                state.advance_counters(step_s)
            with span("kernel.advance_noise"):
                state.advance_noise(rho, innovation_std)
            sim.clock_s += step_s
            t_sample = sim.clock_s
            grid[step] = t_sample
            if ledger is None:
                with span("kernel.wall_power"):
                    wall = state.wall_power()
                fleet_attr = None
            else:
                with span("kernel.wall_power"):
                    wall = state.wall_power(components=ledger.power_buf)
                fleet_attr = ledger.record(t_sample, step_s,
                                           ledger.power_buf, wall)
            total_power[step] = wall.sum()
            total_traffic[step] = ingress
            polled = t_sample >= next_poll_s
            if polled:
                M_SNMP_POLLS.inc()
                collector.record_vector(t_sample, hostnames, wall, state)
                next_poll_s += max(snmp_period_s, step_s)
            if state._view_routers:
                with span("kernel.sync_views"):
                    state.sync_views()
            if sim.autopower_clients:
                with span("kernel.autopower"):
                    for client in sim.autopower_clients.values():
                        client.tick(t_sample)
            if observers:
                with span("kernel.observers"):
                    power_by_host = dict(zip(hostnames, wall.tolist()))
                    snapshot = StepSnapshot(
                        step=step, t_s=t_sample, step_s=step_s,
                        total_power_w=float(total_power[step]),
                        total_traffic_bps=float(ingress),
                        power_by_host=power_by_host, snmp_polled=polled,
                        attribution=(
                            None if fleet_attr is None else
                            {name: float(fleet_attr[k])
                             for k, name in enumerate(COMPONENTS)}))
                    for observer in observers:
                        observer.on_step(snapshot)
            if observing:
                # netpower: ignore[NP-DET-001] -- same side-channel as
                # step_t0 above.
                step_durations.append(time.perf_counter() - step_t0)
        state.flush_all()
        if step_durations:
            M_STEP_SECONDS.labels(engine="vector").observe_many(
                step_durations)
        if patch_durations:
            M_PATCH_SECONDS.observe_many(patch_durations)
