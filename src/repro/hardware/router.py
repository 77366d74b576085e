"""The virtual router: a ground-truth power engine behind real interfaces.

A :class:`VirtualRouter` stands in for the physical DUTs of the paper.  It
exposes exactly what an operator (or the NetPowerBench orchestrator) can
touch on real hardware:

* configuration -- plug/unplug transceivers, admin up/down, speed;
* cabling -- ports connect to peer ports via :class:`Cable`;
* traffic counters -- 64-bit octet/packet counters per interface;
* PSU telemetry -- self-reported power, with the model-specific quirks
  observed in §6 (offset, pseudo-constant, absent);
* the wall -- ``wall_power_w()`` is what an external meter would see.

The true power computation implements the paper's §4 model *as physics*:
``P_base`` plus, per interface, ``P_trx,in`` from plug-in, ``P_port`` from
admin-up, ``P_trx,up`` from link-up, and the affine traffic terms -- then
pushes the DC total through the PSU group's efficiency curves.  Catalog
power terms are wall-referred (the paper derived them from wall power on
nominal supplies), so DC demand is obtained by inverting the *nominal* PSU
curve; per-instance PSU deviations then surface exactly as the constant
model offsets the paper observes in deployment (§6, §9).

Deriving a model from this object is therefore a genuine end-to-end test
of the paper's methodology, offsets included.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import units
from repro.activity import carrying_traffic
from repro.hardware.catalog import (
    InterfaceClassTruth,
    PsuConfig,
    PsuSensorQuirk,
    RouterModelSpec,
)
from repro.hardware.psu import (
    PSUGroup,
    PSUInstance,
    PSUModel,
    PsuSensorReading,
    SharingPolicy,
    rating_curve,
)
from repro.hardware.transceiver import (
    PortType,
    TransceiverInstance,
    compatible,
    transceiver,
)

COUNTER_64_WRAP = 2 ** 64


@dataclass
class Counters:
    """SNMP-style interface counters (ifHC* MIB objects).

    Octet counters count layer-2 frame bytes (header + payload, no preamble
    or inter-packet gap), exactly like ``ifHCInOctets``.  They wrap at 2^64.
    """

    rx_octets: int = 0
    tx_octets: int = 0
    rx_packets: int = 0
    tx_packets: int = 0

    def snapshot(self) -> "Counters":
        """A frozen copy of the current values."""
        return Counters(self.rx_octets, self.tx_octets,
                        self.rx_packets, self.tx_packets)

    def add(self, rx_octets: float, tx_octets: float,
            rx_packets: float, tx_packets: float) -> None:
        """Accumulate traffic, wrapping at 64 bits."""
        self.rx_octets = int(self.rx_octets + rx_octets) % COUNTER_64_WRAP
        self.tx_octets = int(self.tx_octets + tx_octets) % COUNTER_64_WRAP
        self.rx_packets = int(self.rx_packets + rx_packets) % COUNTER_64_WRAP
        self.tx_packets = int(self.tx_packets + tx_packets) % COUNTER_64_WRAP

    def reset(self) -> None:
        """Zero all counters (happens on reboot)."""
        self.rx_octets = self.tx_octets = 0
        self.rx_packets = self.tx_packets = 0


@dataclass
class OfferedTraffic:
    """Traffic currently flowing through a port, per direction.

    ``rx_bps``/``tx_bps`` are *physical-layer* bit rates (including preamble
    and inter-packet gap); ``packet_bytes`` is the payload size ``L`` of the
    paper's Eq. (12), used to derive packet rates and counter increments.
    """

    rx_bps: float = 0.0
    tx_bps: float = 0.0
    packet_bytes: float = units.MAX_PACKET_BYTES

    @property
    def rx_pps(self) -> float:
        """Received packets per second."""
        return units.packet_rate(self.rx_bps, self.packet_bytes)

    @property
    def tx_pps(self) -> float:
        """Transmitted packets per second."""
        return units.packet_rate(self.tx_bps, self.packet_bytes)

    @property
    def total_bps(self) -> float:
        """Bit rate summed over both directions (the model's ``r_i``)."""
        return self.rx_bps + self.tx_bps

    @property
    def total_pps(self) -> float:
        """Packet rate summed over both directions (the model's ``p_i``)."""
        return self.rx_pps + self.tx_pps


class Port:
    """One physical port of a virtual router."""

    def __init__(self, router: "VirtualRouter", index: int,
                 port_type: PortType, name: str):
        self.router = router
        self.index = index
        self.port_type = port_type
        self.name = name
        self.transceiver: Optional[TransceiverInstance] = None
        self.admin_up = False
        self.configured_speed_gbps: Optional[float] = None
        self.cable: Optional["Cable"] = None
        self.counters = Counters()
        self.traffic = OfferedTraffic()
        self._truth_cache: Optional[InterfaceClassTruth] = None
        self._truth_cache_valid = False

    # -- state ---------------------------------------------------------------

    @property
    def plugged(self) -> bool:
        """Whether a transceiver module is seated in this port."""
        return self.transceiver is not None

    @property
    def speed_gbps(self) -> float:
        """Operating line rate: configured speed, else the module's rate."""
        if self.configured_speed_gbps is not None:
            return self.configured_speed_gbps
        if self.transceiver is not None:
            return self.transceiver.model.speed_gbps
        return 0.0

    @property
    def peer(self) -> Optional[Union["Port", "ExternalPeerPort"]]:
        """The endpoint at the other end of the cable, if any: a fleet
        port, or an :class:`ExternalPeerPort` outside the fleet."""
        if self.cable is None:
            return None
        return self.cable.other(self)

    @property
    def link_up(self) -> bool:
        """Whether the interface is operationally up.

        Requires both ends plugged, admin-up, and a cable between them --
        the Trx experiment of §5.2 brings links up by setting both ports
        of a pair admin-up.
        """
        peer = self.peer
        return (self.plugged and self.admin_up and peer is not None
                and peer.plugged and peer.admin_up)

    def _mark_dirty(self) -> None:
        """Invalidate this port's class-truth cache and the owning
        router's static-power cache."""
        self._truth_cache_valid = False
        self.router._static_dirty = True

    def _mark_peer_dirty(self) -> None:
        peer = self.peer
        if isinstance(peer, Port):
            peer._mark_dirty()

    # -- configuration -------------------------------------------------------

    def plug(self, module: Union[str, TransceiverInstance]) -> None:
        """Seat a transceiver (instance or catalog product name)."""
        if isinstance(module, str):
            module = transceiver(module)
        if not compatible(self.port_type, module.model):
            raise ValueError(
                f"{module.model.name} ({module.model.form_factor.value}) does "
                f"not fit {self.port_type.value} port {self.name}")
        self.transceiver = module
        self._mark_dirty()
        self._mark_peer_dirty()

    def unplug(self) -> Optional[TransceiverInstance]:
        """Remove the seated module, returning it."""
        module, self.transceiver = self.transceiver, None
        self._mark_dirty()
        self._mark_peer_dirty()
        return module

    def set_admin(self, up: bool) -> None:
        """Set the administrative state ('no shutdown' / 'shutdown')."""
        self.admin_up = up
        self._mark_dirty()
        self._mark_peer_dirty()

    def set_speed(self, gbps: Optional[float]) -> None:
        """Force a line rate below the module's nominal (e.g. 100G -> 25G)."""
        if gbps is not None and gbps <= 0:
            raise ValueError(f"speed must be positive, got {gbps}")
        self.configured_speed_gbps = gbps
        self._mark_dirty()

    def offer_traffic(self, rx_bps: float = 0.0, tx_bps: float = 0.0,
                      packet_bytes: float = units.MAX_PACKET_BYTES) -> None:
        """Declare the traffic flowing through this port from now on."""
        if rx_bps < 0 or tx_bps < 0:
            raise ValueError("traffic rates must be >= 0")
        capacity = units.gbps_to_bps(self.speed_gbps)
        if capacity and max(rx_bps, tx_bps) > capacity * 1.001:
            raise ValueError(
                f"{self.name}: offered "
                f"{units.bps_to_gbps(max(rx_bps, tx_bps)):.1f} Gbps "
                f"exceeds line rate {self.speed_gbps} Gbps")
        self.traffic = OfferedTraffic(rx_bps=rx_bps, tx_bps=tx_bps,
                                      packet_bytes=packet_bytes)

    # -- truth ---------------------------------------------------------------

    def class_truth(self) -> Optional[InterfaceClassTruth]:
        """Ground-truth power parameters for the current configuration."""
        if not self._truth_cache_valid:
            if self.transceiver is None:
                self._truth_cache = None
            else:
                self._truth_cache = self.router.spec.find_class(
                    self.port_type, self.transceiver.model.reach,
                    self.speed_gbps)
            self._truth_cache_valid = True
        return self._truth_cache

    def static_components(self) -> Tuple[float, float, float]:
        """Static power split as ``(p_trx_in, p_port, p_trx_up)`` watts.

        Each term is either the catalog truth value or 0.0 depending on
        the port's admin/link state, exactly mirroring the conditional
        accumulation :meth:`static_power_w` always performed.  The
        attribution ledger consumes the split; the scalar sum stays the
        single source of truth for total power.
        """
        truth = self.class_truth()
        if truth is None:
            # Empty cage.  Fixed copper (RJ45) ports are represented with a
            # zero-power pseudo-module, so "no module" always draws nothing.
            return (0.0, 0.0, 0.0)
        module = self.transceiver.model
        trx_in = (0.0 if (module.powers_off_when_down and not self.admin_up)
                  else truth.p_trx_in_w)
        port = truth.p_port_w if self.admin_up else 0.0
        trx_up = truth.p_trx_up_w if self.link_up else 0.0
        return (trx_in, port, trx_up)

    def static_power_w(self) -> float:
        """True state-dependent (traffic-independent) power of this port."""
        # Summing the component split in the original accumulation order
        # is bitwise-identical to the old conditional accumulation:
        # every term is either the truth value or 0.0, and x + 0.0 == x
        # for the finite non-negative powers in the catalog.
        trx_in, port, trx_up = self.static_components()
        power = 0.0
        power += trx_in
        power += port
        power += trx_up
        return power

    def sleep_savings_w(self) -> float:
        """Wall-referred static power *not* drawn because this port sleeps.

        A counterfactual, not a component of the power actually drawn:
        for a plugged, admin-down port it is the static power the port
        would draw were it admin-up with link up (`p_port + p_trx_up`,
        plus `p_trx_in` when the module powers off while shut down).
        Zero for empty cages and for ports that are admin-up.
        """
        truth = self.class_truth()
        if truth is None or self.admin_up:
            return 0.0
        saved = truth.p_port_w + truth.p_trx_up_w
        if self.transceiver.model.powers_off_when_down:
            saved += truth.p_trx_in_w
        return saved

    def dynamic_power_w(self) -> float:
        """True traffic-dependent power of this port."""
        if not self.link_up or not carrying_traffic(self.traffic.rx_bps,
                                                    self.traffic.tx_bps):
            return 0.0
        truth = self.class_truth()
        if truth is None:
            return 0.0
        return (truth.p_offset_w
                + truth.e_bit_j * self.traffic.total_bps
                + truth.e_pkt_j * self.traffic.total_pps)

    def true_power_w(self) -> float:
        """Total true power contribution of this interface."""
        return self.static_power_w() + self.dynamic_power_w()

    def advance(self, dt_s: float) -> None:
        """Accumulate counters for ``dt_s`` seconds of the offered traffic."""
        if dt_s < 0:
            raise ValueError(f"dt must be >= 0, got {dt_s}")
        if not self.link_up or self.traffic.total_bps == 0:
            return
        frame_octets = self.traffic.packet_bytes + units.ETHERNET_HEADER_BYTES
        self.counters.add(
            rx_octets=self.traffic.rx_pps * dt_s * frame_octets,
            tx_octets=self.traffic.tx_pps * dt_s * frame_octets,
            rx_packets=self.traffic.rx_pps * dt_s,
            tx_packets=self.traffic.tx_pps * dt_s,
        )


@dataclass
class Cable:
    """A physical cable (or fibre pair) between two endpoints."""

    a: Union[Port, "ExternalPeerPort"]
    b: Union[Port, "ExternalPeerPort"]

    def other(self, port: Union[Port, "ExternalPeerPort"],
              ) -> Union[Port, "ExternalPeerPort"]:
        """The far end relative to ``port``."""
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise ValueError(f"port {getattr(port, 'name', port)!r} is not an "
                         f"end of this cable")


@dataclass
class ExternalPeerPort:
    """A cable end outside the fleet: another network's port, or the
    orchestrator's NIC at either end of a lab snake.

    It carries only what a router port's link-state logic reads, and is
    always plugged and admin-up, so a port cabled to it behaves like a
    live customer, peer or test-host link.
    """

    name: str
    plugged: bool = True
    admin_up: bool = True
    cable: Optional[Cable] = None


def connect(a: Port, b: Union[Port, ExternalPeerPort]) -> Cable:
    """Cable two ports together (replacing any existing cables)."""
    disconnect(a)
    disconnect(b)
    cable = Cable(a=a, b=b)
    a.cable = cable
    b.cable = cable
    for end in (a, b):
        if isinstance(end, Port):
            end._mark_dirty()
    return cable


def disconnect(port: Union[Port, ExternalPeerPort]) -> None:
    """Remove the cable attached to a port, if any."""
    cable = port.cable
    if cable is None:
        return
    for end in (cable.a, cable.b):
        end.cable = None
        if isinstance(end, Port):
            end._mark_dirty()


_hostname_counter = itertools.count(1)


def nominal_psu_group(psu: PsuConfig) -> PSUGroup:
    """PSUs of a model as shipped, each at the *nominal* deviation.

    See the module docstring: the catalog's power terms are
    wall-referred, so the truth engine inverts this nominal curve to
    obtain DC demand.
    """
    model = PSUModel(name=f"nominal-PSU-{int(psu.capacity_w)}W",
                     capacity_w=psu.capacity_w,
                     curve=rating_curve(psu.rating), rating=psu.rating)
    return PSUGroup(instances=[
        PSUInstance(model=model, efficiency_offset=psu.offset_mean,
                    serial=f"nominal{i}")
        for i in range(psu.count)])


@functools.lru_cache(maxsize=None)
def inversion_grid(psu: PsuConfig) -> Tuple[np.ndarray, np.ndarray]:
    """``(wall_w, dc_w)``: the nominal PSU curve sampled for inversion.

    A monotone 512-point grid over 0-95 % of the group's capacity.  It
    depends only on ``psu``, so it is built once per configuration and
    shared, read-only, by every router and fleet state that uses it.
    The cache holds one entry per distinct configuration in use, a few
    dozen for the whole catalog.
    """
    group = nominal_psu_group(psu)
    dc_grid = np.linspace(0.0, 0.95 * group.total_capacity_w, 512)
    wall_grid = np.array([group.wall_power(dc) for dc in dc_grid])
    wall_grid.flags.writeable = False
    dc_grid.flags.writeable = False
    return wall_grid, dc_grid


class VirtualRouter:
    """A simulated router with ground-truth power behaviour.

    Parameters
    ----------
    spec:
        The product's ground truth (see :mod:`repro.hardware.catalog`).
    hostname:
        Device name; auto-generated if omitted.
    rng:
        Source of randomness for PSU instance offsets, sensor noise, and
        the small ambient power fluctuation.  Pass a seeded generator for
        reproducible experiments.
    noise_std_w:
        Standard deviation of the slowly-varying ambient power noise
        (control plane activity, thermal micro-variation).
    """

    def __init__(self, spec: RouterModelSpec, hostname: Optional[str] = None,
                 rng: Optional[np.random.Generator] = None,
                 noise_std_w: float = 0.25):
        self.spec = spec
        self.hostname = hostname or f"router-{next(_hostname_counter):03d}"
        self.rng = rng if rng is not None else np.random.default_rng()
        self.noise_std_w = noise_std_w
        self.ports: List[Port] = []
        index = 0
        for group in spec.port_groups:
            for _ in range(group.count):
                name = f"Eth0/{index}"
                self.ports.append(Port(self, index, group.port_type, name))
                index += 1
        self.psu_group = self._build_psu_group()
        self._inversion_grid: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Extra fan power from environment events (e.g. the Fig. 8 OS
        #: update that bumped fan speeds by 45 W).
        self.fan_bump_w = 0.0
        #: Ambient temperature at the PoP (°C).  §4.3 deliberately omits
        #: temperature from the *model* because it is pseudo-constant in
        #: server rooms; the truth engine carries it so that excursions
        #: (cooling failures, heat waves) surface as model inaccuracy.
        self.ambient_c = 22.0
        #: Extra fan watts per °C above the cooling set point, as a
        #: fraction of base power (fans ramp with intake temperature).
        self.thermal_coeff_per_c = 0.012
        #: Intake temperature above which fans start ramping.
        self.thermal_setpoint_c = 24.0
        self._noise_state = 0.0
        self._boots = 1
        self._sensor_bias_w = 0.0
        self._pseudo_constant_basis: Optional[float] = None
        self._static_dirty = True
        self._static_sum_w = 0.0
        #: Whether the device is powered at all (decommissioned routers
        #: are dark but stay in the fleet inventory).
        self.powered = True

    # -- construction ---------------------------------------------------------

    def _build_psu_group(self) -> PSUGroup:
        cfg = self.spec.psu
        model = PSUModel(
            name=f"{self.spec.name}-PSU-{int(cfg.capacity_w)}W",
            capacity_w=cfg.capacity_w,
            curve=rating_curve(cfg.rating),
            rating=cfg.rating,
        )
        instances = [
            PSUInstance(
                model=model,
                efficiency_offset=float(self.rng.normal(cfg.offset_mean,
                                                        cfg.offset_std)),
                serial=f"{self.hostname}-psu{i}",
            )
            for i in range(cfg.count)
        ]
        return PSUGroup(instances=instances)

    @property
    def _nominal_group(self) -> PSUGroup:
        """PSUs carrying this model's *nominal* efficiency deviation."""
        return nominal_psu_group(self.spec.psu)

    def _dc_from_wall_referred(self, wall_referred_w: float) -> float:
        """Invert the nominal PSU curve: wall-referred watts -> DC watts.

        Interpolates on the :func:`inversion_grid` of the model's PSU
        configuration, fetched on first use; accurate to well under
        0.01 W across the operating range.
        """
        if self._inversion_grid is None:
            self._inversion_grid = inversion_grid(self.spec.psu)
        wall_grid, dc_grid = self._inversion_grid
        return float(np.interp(wall_referred_w, wall_grid, dc_grid))

    # -- convenience accessors -------------------------------------------------

    @property
    def model_name(self) -> str:
        """Product name of this device."""
        return self.spec.name

    def port(self, index: int) -> Port:
        """Port by index, with a helpful error when out of range."""
        try:
            return self.ports[index]
        except IndexError:
            raise IndexError(
                f"{self.hostname} has {len(self.ports)} ports; "
                f"no port {index}")

    # -- truth ------------------------------------------------------------------

    def thermal_power_w(self) -> float:
        """Extra fan power from ambient temperature above the set point."""
        excess = max(0.0, self.ambient_c - self.thermal_setpoint_c)
        return self.spec.p_base_w * self.thermal_coeff_per_c * excess

    def set_ambient(self, temperature_c: float) -> None:
        """Change the PoP's ambient temperature (cooling events, §4.3)."""
        if not -20.0 <= temperature_c <= 60.0:
            raise ValueError(
                f"ambient temperature {temperature_c} °C is outside the "
                f"plausible -20..60 °C range")
        self.ambient_c = temperature_c

    def wall_referred_power_w(self) -> float:
        """Sum of the (wall-referred) catalog power terms, noise-free."""
        if self._static_dirty:
            self._static_sum_w = sum(p.static_power_w() for p in self.ports)
            self._static_dirty = False
        dynamic = 0.0
        for port in self.ports:
            if carrying_traffic(port.traffic.rx_bps, port.traffic.tx_bps):
                dynamic += port.dynamic_power_w()
        return (self.spec.p_base_w + self.fan_bump_w
                + self.thermal_power_w()
                + self._static_sum_w + dynamic)

    def device_power_w(self, include_noise: bool = True) -> float:
        """True DC-side power demand of the device right now."""
        if not self.powered:
            return 0.0
        power = self._dc_from_wall_referred(self.wall_referred_power_w())
        if include_noise:
            power += self._noise_state
        return max(0.0, power)

    def wall_power_w(self, include_noise: bool = True) -> float:
        """True AC power at the wall: DC demand through the PSU curves.

        This is what the paper's Autopower units (and the lab power meter)
        measure, and it is the quantity the §5 methodology models.
        """
        if not self.powered:
            return 0.0
        return self.psu_group.wall_power(self.device_power_w(include_noise))

    # -- time -------------------------------------------------------------------

    def advance(self, dt_s: float) -> None:
        """Advance simulated time: counters accumulate, ambient noise drifts."""
        if not self.powered:
            return
        for port in self.ports:
            port.advance(dt_s)
        if self.noise_std_w > 0:
            # AR(1) ambient noise with a ~10-minute correlation time.
            rho = float(np.exp(-dt_s / 600.0))
            innovation_std = self.noise_std_w * float(
                np.sqrt(max(0.0, 1 - rho ** 2)))
            self._noise_state = (rho * self._noise_state
                                 + float(self.rng.normal(0.0, innovation_std)))

    def power_cycle(self) -> None:
        """Unplug/replug power: counters reset, PSU sensors re-zero.

        §6.2 observed a PSU reporting 7 W less after nothing but a power
        cycle; PSEUDO_CONSTANT telemetry redraws its bias here.
        """
        self._boots += 1
        for port in self.ports:
            port.counters.reset()
        self._pseudo_constant_basis = None
        if self.spec.psu_quirk == PsuSensorQuirk.PSEUDO_CONSTANT:
            quantum = self.spec.psu_report_quantum_w or 1.0
            self._sensor_bias_w = float(self.rng.uniform(-quantum, quantum))

    def apply_os_update(self, fan_bump_w: float = 45.0) -> None:
        """Install an OS update that changes thermal management (Fig. 8)."""
        self.fan_bump_w += fan_bump_w

    # -- telemetry ----------------------------------------------------------------

    def psu_reported_power_w(self, true_in: Optional[float] = None,
                             ) -> Optional[float]:
        """Total input power as reported by the router's own PSU sensors.

        Behaviour depends on the model's quirk (§6.2): faithful within
        noise, constant offset, pseudo-constant plateau, or ``None``.
        Collectors that already computed this router's wall power (the
        object engine's SNMP poll) can pass it as ``true_in`` to skip the
        recomputation; the sensor-noise draws are identical either way.
        The vectorized engine evaluates the same terms as columns
        (``FleetState.psu_reported_power``).
        """
        quirk = self.spec.psu_quirk
        if quirk == PsuSensorQuirk.ABSENT or not self.powered:
            return None
        if true_in is None:
            true_in = self.wall_power_w()
        if quirk == PsuSensorQuirk.ACCURATE:
            return true_in * (1.0 + float(self.rng.normal(0.0, 0.005)))
        if quirk == PsuSensorQuirk.OFFSET:
            return (true_in + self.spec.psu_report_offset_w
                    + float(self.rng.normal(0.0, 0.3)))
        # PSEUDO_CONSTANT: a quantised plateau that only moves when the
        # true value drifts far from the last basis, plus a per-boot bias.
        quantum = self.spec.psu_report_quantum_w or 1.0
        if (self._pseudo_constant_basis is None
                or abs(true_in - self._pseudo_constant_basis) > 1.5 * quantum):
            self._pseudo_constant_basis = round(true_in / quantum) * quantum
        return (self._pseudo_constant_basis + self._sensor_bias_w
                + float(self.rng.normal(0.0, 0.05)))

    def psu_sensor_snapshots(self) -> List[PsuSensorReading]:
        """One (P_in, P_out) reading per PSU -- the §9.2 one-time export."""
        return self.psu_group.sensor_snapshots(
            self.device_power_w(), self.rng)

    def interface_counters(self) -> Dict[str, Counters]:
        """Snapshot of every port's counters, keyed by interface name."""
        return {port.name: port.counters.snapshot() for port in self.ports}

    def inventory(self) -> Dict[str, Optional[str]]:
        """Module inventory: interface name -> transceiver product (or None).

        This is the "module inventory file" §6.2 combines with power models
        to predict deployed power.
        """
        return {
            port.name: port.transceiver.name if port.transceiver else None
            for port in self.ports
        }

    def set_sharing_policy(self, policy: SharingPolicy) -> None:
        """Change how DC load spreads over the PSUs (§9.3.4 scenarios)."""
        self.psu_group.policy = policy

    def __repr__(self) -> str:
        return (f"VirtualRouter({self.model_name!r}, {self.hostname!r}, "
                f"{len(self.ports)} ports)")
