"""SNMP-style telemetry collection from deployed routers.

Reproduces the shape of the paper's 10-month Switch dataset: every poll
period (5 minutes), each router exports its PSU-reported input power (if
the platform reports one at all, §6.2) and its 64-bit interface counters.
A one-time *sensor export* additionally captures each PSU's input and
output power -- the snapshot §9.2 relies on, since the periodic traces
only contain ``P_in``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.hardware.psu import PsuSensorReading
from repro.hardware.router import Counters, VirtualRouter
from repro.obs import tracing
from repro.telemetry.traces import CounterSeries, InterfaceTrace, TimeSeries

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.engine import FleetState

#: MIB object names used in record dictionaries, for readability.
IF_HC_IN_OCTETS = "ifHCInOctets"
IF_HC_OUT_OCTETS = "ifHCOutOctets"
IF_HC_IN_PKTS = "ifHCInUcastPkts"
IF_HC_OUT_PKTS = "ifHCOutUcastPkts"


@dataclass(frozen=True)
class PsuInventoryEntry:
    """One PSU as it appears in the router's hardware inventory (§9.2)."""

    router: str
    psu_index: int
    model: str
    capacity_w: float


@dataclass(frozen=True)
class PsuSensorExport:
    """One-time environment-sensor snapshot of a PSU (§9.2).

    ``input_w``/``output_w`` are raw sensor values; they are noisy and can
    imply an efficiency above 100 %, which analyses must cap.
    """

    router: str
    router_model: str
    psu_index: int
    capacity_w: float
    input_w: float
    output_w: float

    @property
    def load_fraction(self) -> float:
        """Reported output power over capacity."""
        return self.output_w / self.capacity_w

    @property
    def efficiency(self) -> float:
        """Implied efficiency, capped at 100 % like the paper does."""
        if self.input_w <= 0:
            return 0.0
        return min(1.0, self.output_w / self.input_w)


class SnmpAgent:
    """The SNMP view of one router: what a poller can read."""

    def __init__(self, router: VirtualRouter):
        self.router = router

    @property
    def hostname(self) -> str:
        """sysName of the device."""
        return self.router.hostname

    def poll_power(self, true_in: Optional[float] = None) -> Optional[float]:
        """PSU-reported total input power, or None if unsupported.

        ``true_in`` optionally supplies the router's already-computed wall
        power so the sensor model does not recompute it (the object
        engine's poll passes the step's wall power).
        """
        return self.router.psu_reported_power_w(true_in=true_in)

    def poll_counters(self) -> Dict[str, Counters]:
        """Current 64-bit counters per interface."""
        return self.router.interface_counters()

    def psu_inventory(self) -> List[PsuInventoryEntry]:
        """PSU models and capacities from the hardware inventory."""
        return [
            PsuInventoryEntry(router=self.hostname, psu_index=i,
                              model=psu.model.name,
                              capacity_w=psu.capacity_w)
            for i, psu in enumerate(self.router.psu_group.instances)
        ]

    def sensor_export(self) -> List[PsuSensorExport]:
        """One-time P_in/P_out snapshot of every PSU (§9.2)."""
        readings = self.router.psu_sensor_snapshots()
        return [
            PsuSensorExport(
                router=self.hostname,
                router_model=self.router.model_name,
                psu_index=i,
                capacity_w=self.router.psu_group.instances[i].capacity_w,
                input_w=reading.input_w,
                output_w=reading.output_w,
            )
            for i, reading in enumerate(readings)
        ]


@dataclass
class RouterTrace:
    """Everything collected for one router over a monitoring campaign."""

    hostname: str
    router_model: str
    power: TimeSeries
    interfaces: Dict[str, InterfaceTrace] = field(default_factory=dict)
    inventory: Dict[str, Optional[str]] = field(default_factory=dict)

    def median_power_w(self) -> float:
        """Median of the PSU-reported power (the Table 1 statistic)."""
        return self.power.median()

    def total_octet_rate(self) -> TimeSeries:
        """Sum of rx+tx octet rates over all recorded interfaces."""
        if not self.interfaces:
            return TimeSeries(np.array([]), np.array([]))
        acc: Optional[np.ndarray] = None
        ts: Optional[np.ndarray] = None
        for iface in self.interfaces.values():
            rx, tx = iface.octet_rates()
            if len(rx) == 0:
                continue
            total = np.nan_to_num(rx.values) + np.nan_to_num(tx.values)
            if acc is None:
                acc, ts = total, rx.timestamps
            else:
                n = min(len(acc), len(total))
                acc = acc[:n] + total[:n]
                ts = ts[:n]
        if acc is None:
            return TimeSeries(np.array([]), np.array([]))
        return TimeSeries(ts, acc)


class SnmpCollector:
    """Polls a set of routers on a fixed period and accumulates traces.

    Counter collection is restricted to interfaces that have a module
    plugged (empty cages never count traffic), and can be further limited
    to a subset of routers via ``detailed_hosts`` to keep month-scale
    campaigns at fleet size tractable -- power is always recorded for
    every router.
    """

    def __init__(self, routers: Sequence[VirtualRouter],
                 detailed_hosts: Optional[Iterable[str]] = None):
        self.agents = {r.hostname: SnmpAgent(r) for r in routers}
        if detailed_hosts is None:
            self.detailed_hosts = set(self.agents)
        else:
            self.detailed_hosts = set(detailed_hosts)
            unknown = self.detailed_hosts - set(self.agents)
            if unknown:
                raise ValueError(
                    f"detailed hosts not in the fleet: {sorted(unknown)}")
        self._timestamps: List[float] = []
        # One row per poll: every agent's reported power, in agent order
        # (NaN where a router reports none).
        self._column = {h: k for k, h in enumerate(self.agents)}
        self._power_rows: List[np.ndarray] = []
        # host -> iface -> (ts, rx_oct, tx_oct, rx_pkt, tx_pkt) lists
        self._counters: Dict[str, Dict[str, List[List]]] = {
            h: {} for h in self.agents if h in self.detailed_hosts}
        # The hostname sequence record_vector() last checked against the
        # agent order.
        self._vector_hosts: Optional[Sequence[str]] = None

    def record(self, timestamp_s: float,
               true_power_by_host: Optional[Dict[str, float]] = None) -> None:
        """Take one poll of the whole fleet.

        ``true_power_by_host`` optionally maps hostnames to their current
        true wall power; hosts present in it skip the per-router wall
        recomputation (see :meth:`SnmpAgent.poll_power`).
        """
        with tracing.span("kernel.snmp_poll"):
            self._timestamps.append(timestamp_s)
            row = np.empty(len(self.agents))
            self._power_rows.append(row)
            for k, (hostname, agent) in enumerate(self.agents.items()):
                true_in = (None if true_power_by_host is None
                           else true_power_by_host.get(hostname))
                power = agent.poll_power(true_in=true_in)
                row[k] = power if power is not None else np.nan
                if hostname not in self.detailed_hosts:
                    continue
                store = self._counters[hostname]
                ports_by_name = {p.name: p for p in agent.router.ports}
                for iface_name, counters in agent.poll_counters().items():
                    port = ports_by_name[iface_name]
                    if not port.plugged:
                        continue
                    slot = store.setdefault(iface_name,
                                            [[], [], [], [], []])
                    slot[0].append(timestamp_s)
                    slot[1].append(counters.rx_octets)
                    slot[2].append(counters.tx_octets)
                    slot[3].append(counters.rx_packets)
                    slot[4].append(counters.tx_packets)

    def record_vector(self, timestamp_s: float, hostnames: Sequence[str],
                      true_power_w: np.ndarray,
                      state: "FleetState") -> None:
        """Columnar-engine poll: the records of :meth:`record`, as columns.

        The vectorized engine hands its per-router wall-power column and
        its :class:`~repro.network.engine.FleetState` straight in.  The
        poll's power row is
        :meth:`~repro.network.engine.FleetState.psu_reported_power`: the
        §6.2 sensor model as column expressions over each router's own
        noise stream, bit for bit the values :meth:`record` draws router
        by router.  Detailed-host counters are read directly off the
        columnar arrays
        (:meth:`~repro.network.engine.FleetState.counters_view`), with no
        object write-back.  ``hostnames`` is the fleet order the power
        column and ``state`` are indexed by, and must be this
        collector's agent order.
        """
        with tracing.span("kernel.snmp_poll"):
            if hostnames is not self._vector_hosts:
                if list(hostnames) != list(self.agents):
                    raise ValueError(
                        "record_vector() needs the hostnames in the "
                        "collector's agent order")
                self._vector_hosts = hostnames
            self._timestamps.append(timestamp_s)
            self._power_rows.append(state.psu_reported_power(true_power_w))
            for hostname, store in self._counters.items():
                rx_oct, tx_oct, rx_pkt, tx_pkt = state.counters_view(
                    hostname)
                ports = self.agents[hostname].router.ports
                for k, port in enumerate(ports):
                    if not port.plugged:
                        continue
                    slot = store.setdefault(port.name,
                                            [[], [], [], [], []])
                    slot[0].append(timestamp_s)
                    slot[1].append(int(rx_oct[k]))
                    slot[2].append(int(tx_oct[k]))
                    slot[3].append(int(rx_pkt[k]))
                    slot[4].append(int(tx_pkt[k]))

    def last_poll_s(self) -> Optional[float]:
        """Timestamp of the most recent poll, or None before the first."""
        if not self._timestamps:
            return None
        return self._timestamps[-1]

    def last_power(self, hostname: str) -> Optional[float]:
        """Most recent PSU-reported power for one router.

        None if the router has never been polled or its platform does not
        report a power value (the NaN case, §6.2).
        """
        column = self._column.get(hostname)
        if column is None or not self._power_rows:
            return None
        value = float(self._power_rows[-1][column])
        if math.isnan(value):
            return None
        return value

    def counters_tail(self, hostname: str, n: int = 2,
                      ) -> Dict[str, List[List]]:
        """Last ``n`` raw counter samples per interface of one router.

        Returns ``iface -> [ts, rx_oct, tx_oct, rx_pkt, tx_pkt]`` where
        each entry is the tail of the recorded lists -- exactly what a
        streaming consumer (the live model-prediction source) needs to
        recompute the most recent counter rate without holding the whole
        campaign in memory twice.
        """
        store = self._counters.get(hostname, {})
        return {iface: [column[-n:] for column in slot]
                for iface, slot in store.items()}

    def finalize(self) -> Dict[str, RouterTrace]:
        """Build immutable traces from everything recorded so far."""
        ts = np.array(self._timestamps, dtype=float)
        # One contiguous row per host: its column of the poll rows.
        power = (np.stack(self._power_rows, axis=1) if self._power_rows
                 else np.empty((len(self.agents), 0)))
        traces: Dict[str, RouterTrace] = {}
        for k, (hostname, agent) in enumerate(self.agents.items()):
            interfaces: Dict[str, InterfaceTrace] = {}
            for iface_name, slot in self._counters.get(hostname, {}).items():
                iface_ts = np.array(slot[0], dtype=float)
                interfaces[iface_name] = InterfaceTrace(
                    name=iface_name,
                    rx_octets=CounterSeries(iface_ts, np.array(slot[1])),
                    tx_octets=CounterSeries(iface_ts, np.array(slot[2])),
                    rx_packets=CounterSeries(iface_ts, np.array(slot[3])),
                    tx_packets=CounterSeries(iface_ts, np.array(slot[4])),
                )
            traces[hostname] = RouterTrace(
                hostname=hostname,
                router_model=agent.router.model_name,
                power=TimeSeries(ts, power[k]),
                interfaces=interfaces,
                inventory=agent.router.inventory(),
            )
        return traces

    def sensor_exports(self) -> List[PsuSensorExport]:
        """One-time P_in/P_out snapshot across the fleet (§9.2)."""
        exports: List[PsuSensorExport] = []
        for agent in self.agents.values():
            exports.extend(agent.sensor_export())
        return exports
