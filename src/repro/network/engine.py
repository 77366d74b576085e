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

One step loop, in :meth:`NetworkSimulation.run
<repro.network.simulation.NetworkSimulation.run>`, drives both engines:
it owns the order of a step (events, advance, wall power, SNMP poll,
view sync, Autopower, observers) and calls its engine's kernels for the
O(fleet) work.  :class:`VectorizedEngine` supplies the columnar kernels.

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
  paths write the columns with one row writer, so they produce
  bit-identical columns.  At the end of a run all
  counters, offered traffic, and noise states are written back, so
  post-run object inspection is indistinguishable from a scalar run.
* **Identical RNG streams.**  NumPy ``Generator`` array draws consume the
  underlying bit stream exactly like the equivalent sequence of scalar
  draws, so vectorised demand noise reproduces the object path's values
  bit for bit.  Every draw a run makes from a router's own generator
  (the AR(1) ambient noise, the PSU sensor noise) is a normal, and
  ``normal(0.0, s)`` is ``0.0 + s * z`` for the next standard normal
  ``z``; so the columns draw each router's standard normals a block at
  a time (:data:`NORMAL_BLOCK`) and take them in the object path's
  per-router order.  Wherever authority goes back to the objects --
  before events fire, and at the end of the run -- each generator is
  settled where the scalar calls would have left it
  (:meth:`FleetState.flush_noise`).
* **Identical arithmetic where it matters.**  Elementwise array formulas
  mirror the scalar expressions' association order, counter accumulation
  replicates ``int(prev + inc)`` truncation via ``np.floor``, and the
  DC-inversion interpolation runs on the grid the routers share
  (``hardware.router.inversion_grid``).
  Remaining differences (pairwise vs. sequential summation, fused
  constant factors) stay within ~1e-12 relative error; the equivalence
  suite asserts 1e-9.

Counters are held as float64 columns: exact up to 2^53, far beyond any
realistic campaign, but the fast path does not reproduce the 2^64 counter
wrap (the object engine does).  Runs long enough to wrap a 64-bit octet
counter should use ``engine="object"``.
"""

from __future__ import annotations

import math
import time
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro import units
from repro.activity import carrying_traffic_mask
from repro.hardware.catalog import PsuConfig
from repro.hardware.psu import (PSUGroup, PSUInstance, QuadraticLossCurve,
                                ScaledLossCurve, SharingPolicy)
from repro.hardware.router import (OfferedTraffic, Port, PsuSensorQuirk,
                                   VirtualRouter, inversion_grid)
from repro.obs import metrics, tracing

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.network.events import FleetEvent
    from repro.network.topology import ISPNetwork
    from repro.telemetry.snmp import SnmpCollector

#: Noise correlation time of the routers' AR(1) ambient noise (matches
#: :meth:`VirtualRouter.advance`).
_NOISE_TAU_S = 600.0

#: Standard normals drawn from one router's generator at a time: 256
#: bytes per router of buffer, and one generator call per router every
#: ``NORMAL_BLOCK`` draws.
NORMAL_BLOCK = 32

#: ``sensor_kind`` codes of the PSU sensor quirks (§6.2); ABSENT is 0.
_ACCURATE, _OFFSET, _PLATEAU = 1, 2, 3
_QUIRK_CODE = {PsuSensorQuirk.ABSENT: 0, PsuSensorQuirk.ACCURATE: _ACCURATE,
               PsuSensorQuirk.OFFSET: _OFFSET,
               PsuSensorQuirk.PSEUDO_CONSTANT: _PLATEAU}

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


def _drawing_psus(group: PSUGroup) -> Sequence[PSUInstance]:
    """The supplies of a group that get a coefficient row: every one,
    except a SINGLE group's spares, which draw nothing."""
    if group.policy == SharingPolicy.SINGLE:
        return group.instances[:1]
    return group.instances


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
      link wiring) is derived from the objects -- the fleet-level
      analogue of the router ``_mark_dirty`` hooks.  One writer,
      :meth:`_write_rows`, fills the port, router and PSU columns of a
      set of routers: :meth:`refresh` runs it on every router over a
      fresh layout, :meth:`patch_routers` on the routers an event
      dirtied.

    The noise and sensor kernels draw each router's standard normals a
    block at a time, so they require that each router owns its
    generator (every fleet builder gives each router its own
    ``default_rng``); two routers sharing one would see their draws
    interleaved differently from the object path.
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
        # _write_rows (the PSU columns are laid out by refresh).
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
        # PSU sensor model (VirtualRouter.psu_reported_power_w): the quirk
        # code, its constants, the per-boot bias and the pseudo-constant
        # plateau (NaN for none yet), which a poll moves.
        self.sensor_kind = np.zeros(self.n_routers, dtype=np.int8)
        self.report_offset_w = np.zeros(self.n_routers)
        self.report_quantum_w = np.ones(self.n_routers)
        self.sensor_bias_w = np.zeros(self.n_routers)
        self.sensor_basis_w = np.full(self.n_routers, np.nan)
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
        self.c_rx_oct = np.zeros(self.n_ports)
        self.c_tx_oct = np.zeros(self.n_ports)
        self.c_rx_pkt = np.zeros(self.n_ports)
        self.c_tx_pkt = np.zeros(self.n_ports)
        # Each router's standard normals, drawn NORMAL_BLOCK at a time
        # (see _take_normals): the block, how many of it were taken,
        # and the generator state the block was drawn from (None once
        # the generator is settled).  The block is allocated on the
        # first draw; a FleetState that never steps never draws.
        self._normals: Optional[np.ndarray] = None
        self._normals_taken = np.full(self.n_routers, NORMAL_BLOCK)
        self._normals_from: List[Optional[dict]] = [None] * self.n_routers
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
        ports, _ = self._ports_of(self._rows_of(hostnames))
        counters = [self.ports[f].counters for f in ports.tolist()]
        self.c_rx_oct[ports] = [float(c.rx_octets) for c in counters]
        self.c_tx_oct[ports] = [float(c.tx_octets) for c in counters]
        self.c_rx_pkt[ports] = [float(c.rx_packets) for c in counters]
        self.c_tx_pkt[ports] = [float(c.tx_packets) for c in counters]

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
            indices = self._ports_of(self._rows_of(hostnames))[0].tolist()
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
        """Hand the routers' noise and sensor state back to the objects.

        Writes the AR(1) noise states and the pseudo-constant plateaus
        (a poll can move one) into the routers, and settles each
        router's generator where the object path's scalar draws would
        have left it (see :meth:`_take_normals`), so an event or a
        post-run export draws from the same point either way.
        """
        for i in self._rows_of(hostnames).tolist():
            router = self.routers[i]
            router._noise_state = float(self.noise[i])
            basis = float(self.sensor_basis_w[i])
            router._pseudo_constant_basis = (
                None if math.isnan(basis) else basis)
            state = self._normals_from[i]
            if state is not None:
                rng = router.rng
                rng.bit_generator.state = state
                rng.standard_normal(int(self._normals_taken[i]))
                self._normals_from[i] = None
                self._normals_taken[i] = NORMAL_BLOCK

    def _take_normals(self, rows: np.ndarray) -> np.ndarray:
        """The next standard normal of each listed router's generator.

        ``rows`` are distinct router indices.  ``standard_normal(k)``
        returns the same ``k`` values as ``k`` scalar draws and leaves
        the generator at the same point, so a router whose block is used
        up draws the next ``NORMAL_BLOCK`` in one call, after saving the
        generator state the block starts from; :meth:`flush_noise`
        restores that state and redraws the count taken.
        """
        if self._normals is None:
            self._normals = np.empty((self.n_routers, NORMAL_BLOCK))
        taken = self._normals_taken[rows]
        spent = taken == NORMAL_BLOCK
        if spent.any():
            for i in rows[spent].tolist():
                rng = self.routers[i].rng
                self._normals_from[i] = rng.bit_generator.state
                rng.standard_normal(out=self._normals[i])
            taken[spent] = 0
        self._normals_taken[rows] = taken + 1
        return self._normals[rows, taken]

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

        Called once at construction and again at each event boundary
        that is not patched: a fresh PSU row layout, every router written
        by :meth:`_write_rows` (the writer :meth:`patch_routers` runs on
        a few), then the inversion-grid groups, the link columns, the
        view routers and the active-port cache -- O(ports + links) on
        the rare reshaping steps, and no staleness checks in the hot
        loop.
        """
        M_REFRESH.inc()
        self._layout_psu_rows()
        self._write_rows(np.arange(self.n_routers))
        # Wall->DC inversion: the routers' shared grid of their PSU
        # configuration, one group of routers per grid, so the batched
        # inversion works group by group instead of on a dense
        # (routers x grid) matrix.
        members: Dict[PsuConfig, List[int]] = {}
        for i, router in enumerate(self.routers):
            members.setdefault(router.spec.psu, []).append(i)
        self._grid_groups: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (np.array(indices, dtype=np.int64), *inversion_grid(psu))
            for psu, indices in members.items()]
        self._refresh_links(new_external_link_ids)
        self._refresh_views(view_hosts)
        self._refresh_active_cache()

    def _rows_of(self, hostnames: Optional[Sequence[str]]) -> np.ndarray:
        """Router rows of these hostnames, or of every router for ``None``."""
        if hostnames is None:
            return np.arange(self.n_routers)
        return np.array([self.router_index[h] for h in hostnames],
                        dtype=np.int64)

    def _ports_of(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The flat ports of these router rows, row by row in port order,
        and for each port the position of its router in ``rows``."""
        starts = self._router_start[rows]
        counts = self._router_stop[rows] - starts
        labels = np.repeat(np.arange(len(rows)), counts)
        offsets = starts - (np.cumsum(counts) - counts)
        return np.arange(len(labels)) + np.repeat(offsets, counts), labels

    def _write_rows(self, rows: np.ndarray) -> None:
        """Rebuild every configuration column of these router rows.

        The one writer of the port, router and PSU columns: every row
        for :meth:`refresh`, the dirty ones for :meth:`patch_routers`.
        Each value is a pure function of its router's own objects, and
        each per-router sum is one ``np.bincount`` over the rows' ports,
        which accumulates every router's ports one addition at a time in
        port order -- the chain a fleet-wide ``np.bincount`` runs -- so a
        patched router holds the bits a full rebuild would give it.
        """
        ports, labels = self._ports_of(rows)
        for f in ports.tolist():
            self._patch_port(f)
        for i in rows.tolist():
            self._patch_router_scalars(i)
            self._write_psu_rows(i)
        self.dyn_ok[ports] = self.link_up[ports] & self._has_truth[ports]
        self.port_powered[ports] = self.powered[self.port_router[ports]]
        for values, sums in ((self.static_w, self.static_sum),
                             (self.trx_in_w, self.trx_in_sum),
                             (self.port_w, self.port_sum),
                             (self.trx_up_w, self.trx_up_sum),
                             (self.sleep_w, self.sleep_sum)):
            sums[rows] = np.bincount(labels, weights=values[ports],
                                     minlength=len(rows))
        self._refresh_draw_rows()

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

    def _patch_router_scalars(self, i: int) -> None:
        """Recompute one router's scalar columns from its object.

        ``(p_base + fan_bump) + thermal`` matches the association order
        of ``VirtualRouter.wall_referred_power_w``.
        """
        router = self.routers[i]
        spec = router.spec
        self.powered[i] = router.powered
        self.base_fixed[i] = ((spec.p_base_w + router.fan_bump_w)
                              + router.thermal_power_w())
        self.noise_std[i] = router.noise_std_w
        self.sensor_kind[i] = _QUIRK_CODE[spec.psu_quirk]
        self.report_offset_w[i] = spec.psu_report_offset_w
        self.report_quantum_w[i] = spec.psu_report_quantum_w or 1.0
        self.sensor_bias_w[i] = router._sensor_bias_w
        basis = router._pseudo_constant_basis
        self.sensor_basis_w[i] = np.nan if basis is None else basis

    def _refresh_draw_rows(self) -> None:
        """Routers that draw from their generator in a step, by kernel.

        The object path draws AR(1) noise for powered routers with
        ``noise_std_w > 0``, and sensor noise for powered routers whose
        sensor reports at all; every other router is skipped.
        """
        powered = self.powered
        kind = self.sensor_kind
        self._noise_rows = np.nonzero(powered & (self.noise_std > 0.0))[0]
        self._accurate_rows = np.nonzero(powered & (kind == _ACCURATE))[0]
        self._offset_rows = np.nonzero(powered & (kind == _OFFSET))[0]
        self._plateau_rows = np.nonzero(powered & (kind == _PLATEAU))[0]

    def _layout_psu_rows(self) -> None:
        """One coefficient row per supply that draws power, router by
        router (see :func:`_drawing_psus`), for :meth:`_write_psu_rows`
        to fill."""
        drawing = [_drawing_psus(r.psu_group) for r in self.routers]
        counts = np.array([len(psus) for psus in drawing], dtype=np.int64)
        self._psu_row_stop = np.cumsum(counts)
        self._psu_row_start = self._psu_row_stop - counts
        self.psu_router = np.repeat(np.arange(self.n_routers), counts)
        # Built from the capacities so the column keeps their type
        # (int64 for the catalog's whole watts).
        self.psu_cap = np.array([psu.capacity_w for psus in drawing
                                 for psu in psus])
        n_rows = len(self.psu_cap)
        self.psu_scales = np.ones((n_rows, 0))
        self.psu_a = np.zeros(n_rows)
        self.psu_b = np.zeros(n_rows)
        self.psu_c = np.zeros(n_rows)
        self.psu_div = np.zeros(n_rows)
        self.psu_zero = np.zeros(n_rows, dtype=bool)

    def _write_psu_rows(self, i: int) -> None:
        """Write one router's PSU coefficient rows under its sharing policy.

        The scale chain is padded with exact 1.0 so every row multiplies
        in the same nesting order as its ``ScaledLossCurve`` stack; a
        chain deeper than the matrix (a fresh layout, or PSU aging under
        ``DegradePsu``) widens it with exact-1.0 columns.
        """
        router = self.routers[i]
        group = router.psu_group
        psus = _drawing_psus(group)
        r0 = int(self._psu_row_start[i])
        laid_out = int(self._psu_row_stop[i]) - r0
        if len(psus) != laid_out:
            raise ValueError(
                f"{router.hostname}: PSU row count changed "
                f"({laid_out} -> {len(psus)}); a sharing-policy change "
                f"mid-run requires a full refresh()")
        # Unless balanced, all load is on PSU 0, and a HOT_STANDBY spare
        # idles powered.
        balanced = group.policy == SharingPolicy.BALANCED
        div = float(len(group.instances)) if balanced else 1.0
        for j, psu in enumerate(psus):
            collapsed = _collapse_curve(psu.curve)
            if collapsed is None:
                raise ValueError(
                    f"{router.hostname}: PSU curve "
                    f"{type(psu.curve).__name__} is not vectorizable; "
                    f"run with engine='object'")
            scales, a, b, c = collapsed
            width = self.psu_scales.shape[1]
            if len(scales) > width:
                pad = np.ones((len(self.psu_scales), len(scales) - width))
                self.psu_scales = np.concatenate([self.psu_scales, pad],
                                                 axis=1)
            row = r0 + j
            self.psu_cap[row] = psu.capacity_w
            self.psu_scales[row, :] = 1.0
            self.psu_scales[row, :len(scales)] = scales
            self.psu_a[row] = a
            self.psu_b[row] = b
            self.psu_c[row] = c
            self.psu_div[row] = div
            self.psu_zero[row] = not balanced and j > 0

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
        """Rewrite the configuration columns of the named routers in place.

        The incremental counterpart of :meth:`refresh`: the same writer,
        :meth:`_write_rows`, over these routers' rows only.  The PSU row
        layout and the link/scatter layout, which no patchable event
        changes, stay as they are, and so does every other router's row.
        """
        M_ROUTERS_PATCHED.inc(len(hostnames))
        self._write_rows(self._rows_of(hostnames))
        self._refresh_active_cache()

    def memory_footprint(self) -> Dict[str, float]:
        """Bytes held by the columnar arrays (the object fleet excluded).

        ``bytes_total`` sums every NumPy column plus the shared
        inversion grids; ``bytes_per_router`` divides by fleet
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
        """Vectorised mirror of the object kernels' ``_apply_traffic``.

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
        """One AR(1) noise update per powered router with noise enabled.

        ``VirtualRouter.advance`` term for term: ``rho * noise +
        normal(0.0, std)``, with the normal as ``0.0 + std * z`` over
        each router's next standard normal (:meth:`_take_normals`).
        """
        rows = self._noise_rows
        if len(rows):
            z = self._take_normals(rows)
            self.noise[rows] = (rho * self.noise[rows]
                                + (0.0 + innovation_std[rows] * z))

    def psu_reported_power(self, wall: np.ndarray) -> np.ndarray:
        """Every router's PSU-reported input power for one SNMP poll.

        ``VirtualRouter.psu_reported_power_w(true_in=wall[i])`` term for
        term, as column expressions over the routers of each §6.2 quirk,
        with each ``normal(0.0, s)`` as ``0.0 + s * z`` over the router's
        next standard normal.  The pseudo-constant plateau re-bases when
        there is none yet or the true value has left it by more than 1.5
        quanta; ``np.round`` rounds half to even, like ``round``.  A
        router that is unpowered or has no power sensor reports NaN and
        draws nothing.
        """
        reported = np.full(self.n_routers, np.nan)
        rows = self._accurate_rows
        if len(rows):
            reported[rows] = wall[rows] * (
                1.0 + (0.0 + 0.005 * self._take_normals(rows)))
        rows = self._offset_rows
        if len(rows):
            reported[rows] = ((wall[rows] + self.report_offset_w[rows])
                              + (0.0 + 0.3 * self._take_normals(rows)))
        rows = self._plateau_rows
        if len(rows):
            true_in = wall[rows]
            quantum = self.report_quantum_w[rows]
            basis = self.sensor_basis_w[rows]
            redo = np.isnan(basis) | (np.abs(true_in - basis)
                                      > 1.5 * quantum)
            basis = np.where(redo, np.round(true_in / quantum) * quantum,
                             basis)
            self.sensor_basis_w[rows] = basis
            reported[rows] = ((basis + self.sensor_bias_w[rows])
                              + (0.0 + 0.05 * self._take_normals(rows)))
        return reported

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

        Works one grid group at a time (routers of one PSU configuration
        share one inversion grid): ``np.searchsorted(side="left")``
        counts grid points strictly below each value -- exactly the dense
        form's ``(grids < wall).sum(axis=1)`` -- so the interpolation
        arithmetic is element-for-element identical at a fraction of the
        memory traffic.
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
    """The columnar step kernels of one :class:`NetworkSimulation` run.

    ``NetworkSimulation.run`` steps the fleet with one loop for both
    engines; this class supplies the O(fleet) work -- ``apply_events``,
    ``advance``, ``wall_power``, ``poll``, ``sync_views`` and ``finish``
    -- as array operations over a :class:`FleetState`.  What is its own:
    the state, the choice between an incremental patch and a full
    refresh at each event boundary, and the AR(1) noise constants.
    """

    def __init__(self, simulation, step_s: float):
        self.sim = simulation
        #: Captured at construction so one run is internally consistent
        #: even if the module flag is toggled mid-run (tests do).
        self.incremental = INCREMENTAL_REFRESH
        self.state = FleetState(
            simulation.network, simulation.traffic,
            new_external_link_ids=simulation._new_external_link_ids,
            view_hosts=simulation._view_hosts())
        self._rho = float(np.exp(-step_s / _NOISE_TAU_S))
        self._innovation_scale = float(np.sqrt(max(0.0, 1 - self._rho ** 2)))
        self._innovation_std = self.state.noise_std * self._innovation_scale
        self._observing = metrics.enabled()
        self._patch_durations: List[float] = []

    def apply_events(self, boundary: Sequence["FleetEvent"]) -> None:
        """Fire one boundary's events and bring the columns up to date.

        Authority goes back to the objects first: the affected column
        state is flushed and the events apply.  The configuration is then
        patched in place when every event declares its dirty routers, or
        rebuilt wholesale when any event may reshape the links.
        """
        sim = self.sim
        state = self.state
        M_EVENT_BOUNDARIES.inc()
        dirty: Optional[set] = set() if self.incremental else None
        if dirty is not None:
            for event in boundary:
                declared = event.dirty_hosts(sim)
                if declared is None:
                    dirty = None
                    break
                dirty.update(declared)
        if dirty is None:
            with tracing.span("kernel.refresh"):
                state.flush_counters()
                state.flush_noise()
                sim._fire(boundary)
                state.snapshot_counters()
                state.refresh(sim._new_external_link_ids,
                              sim._view_hosts())
        else:
            if self._observing:
                # netpower: ignore[NP-DET-001] -- wall-clock here only
                # feeds the patch-latency histogram; it never reaches
                # simulation state.
                patch_t0 = time.perf_counter()
            hosts = sorted(dirty)
            with tracing.span("kernel.patch_routers"):
                state.flush_counters(hosts)
                state.flush_noise(hosts)
                sim._fire(boundary)
                state.snapshot_counters(hosts)
                state.patch_routers(hosts)
                state._refresh_views(sim._view_hosts())
            M_PARTIAL_REFRESH.inc()
            if self._observing:
                # netpower: ignore[NP-DET-001] -- same side-channel as
                # patch_t0 above.
                self._patch_durations.append(time.perf_counter() - patch_t0)
        self._innovation_std = state.noise_std * self._innovation_scale

    def advance(self, t_s: float, step_s: float) -> float:
        """Scatter the step's traffic, then advance counters and noise;
        returns the total external ingress bps."""
        state = self.state
        with tracing.span("kernel.apply_traffic"):
            ingress = state.apply_traffic(t_s)
        with tracing.span("kernel.advance_counters"):
            state.advance_counters(step_s)
        with tracing.span("kernel.advance_noise"):
            state.advance_noise(self._rho, self._innovation_std)
        return ingress

    def wall_power(self, components: Optional[np.ndarray],
                   ) -> Tuple[np.ndarray, float]:
        """Per-router wall power in fleet order, and the fleet total.

        With ``components`` (the ledger's buffer), the attribution split
        is written into it as well (see :meth:`FleetState.wall_power`);
        the wall-power floats are unchanged either way.
        """
        wall = self.state.wall_power(components)
        return wall, wall.sum()

    def poll(self, collector: "SnmpCollector", t_s: float,
             hostnames: Sequence[str], wall: np.ndarray) -> None:
        """One SNMP poll straight off the columns."""
        collector.record_vector(t_s, hostnames, wall, self.state)

    def sync_views(self) -> None:
        """Flush the view routers' traffic and noise to their objects."""
        if self.state._view_routers:
            with tracing.span("kernel.sync_views"):
                self.state.sync_views()

    def finish(self) -> None:
        """Write every column back to the objects after the last step."""
        self.state.flush_all()
        if self._patch_durations:
            M_PATCH_SECONDS.observe_many(self._patch_durations)
