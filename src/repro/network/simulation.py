"""Time-stepped simulation of the ISP fleet under monitoring.

This is the stand-in for "running the Switch network for weeks while the
collectors watch": at every step the traffic model assigns loads to every
interface, routers advance (counters accumulate, ambient noise drifts),
due operational events fire, and the SNMP collector and any deployed
Autopower units take their samples.

The result object carries everything the §6-§9 analyses need: per-router
SNMP power traces, interface counter traces for the detailed routers,
Autopower ground truth, the one-time PSU sensor export, and the
network-wide power/traffic series of Fig. 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

import numpy as np

from repro import units
from repro.network.events import FleetEvent
from repro.network.topology import ISPNetwork, Link
from repro.network.traffic import FleetTrafficModel
from repro.obs import metrics, tracing
from repro.obs.logging import get_logger
from repro.telemetry.autopower import (AutopowerClient, AutopowerServer,
                                       Transport, deploy_unit)
from repro.telemetry.snmp import PsuSensorExport, RouterTrace, SnmpCollector
from repro.telemetry.traces import TimeSeries

if TYPE_CHECKING:
    from repro.network.engine import VectorizedEngine
    from repro.obs.ledger import LedgerAccumulator

#: Average payload size assigned to fleet traffic (IMIX-flavoured).
FLEET_PACKET_BYTES = 700.0

_log = get_logger("network.sim")

#: Step latencies span ~50 us (vector) to ~10 ms (object, big fleets).
STEP_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 1.0)

M_ENGINE_RUNS = metrics.counter(
    "netpower_sim_engine_runs_total",
    "Simulation runs started, by engine actually used", labels=("engine",))
M_ENGINE_FALLBACK = metrics.counter(
    "netpower_sim_engine_fallback_total",
    "engine='auto' selections that fell back to the object loop")
M_STEPS = metrics.counter(
    "netpower_sim_steps_total",
    "Simulation steps executed, by engine", labels=("engine",))
M_EVENTS = metrics.counter(
    "netpower_sim_events_fired_total",
    "Operational fleet events fired, by event type", labels=("type",))
M_SNMP_POLLS = metrics.counter(
    "netpower_sim_snmp_polls_total",
    "SNMP collector poll rounds taken during simulation")
M_STEP_SECONDS = metrics.histogram(
    "netpower_sim_step_seconds",
    "Wall-clock latency of one simulation step", labels=("engine",),
    buckets=STEP_LATENCY_BUCKETS)
M_FLEET_POWER = metrics.gauge(
    "netpower_sim_fleet_power_watts",
    "Network-wide wall power at the last simulated step")
M_FLEET_TRAFFIC = metrics.gauge(
    "netpower_sim_fleet_traffic_bps",
    "Total external ingress traffic at the last simulated step")


@dataclass(frozen=True)
class StepSnapshot:
    """What a :class:`StepObserver` sees after each simulation step.

    Values are read-only copies of the step's fresh state; observers must
    never mutate routers or draw from simulation RNG streams (the same
    contract as the obs instruments: byte-identical results with or
    without observers attached).
    """

    #: Step index (0-based) and the sample timestamp (end of the step).
    step: int
    t_s: float
    step_s: float
    total_power_w: float
    total_traffic_bps: float
    #: Per-router wall power, in fleet iteration order.
    power_by_host: Dict[str, float]
    #: Whether the SNMP collector polled on this step.
    snmp_polled: bool
    #: Fleet-level watts per attribution component, keyed by
    #: :data:`repro.obs.ledger.COMPONENTS` name -- ``None`` unless the
    #: run's energy ledger is active.
    attribution: Optional[Dict[str, float]] = None


class StepObserver:
    """Hook invoked identically by both simulation engines.

    Subclass and override what you need; every method is a no-op by
    default.  Observers attach via :meth:`NetworkSimulation.add_observer`
    and receive one :class:`StepSnapshot` per step, *after* the step's
    SNMP poll and Autopower ticks -- so collector state and meter buffers
    are current when ``on_step`` runs.
    """

    def view_hosts(self) -> Sequence[str]:
        """Hostnames whose Port/router objects must stay fresh per step.

        The vectorized engine keeps only these routers' objects in sync
        with the columnar state during the run (the same mechanism that
        serves Autopower meters); list every router the observer reads
        object state from (``wall_power_w``, ``device_power_w``, port
        traffic).
        """
        return ()

    def on_run_start(self, sim: "NetworkSimulation", engine: str,
                     collector: SnmpCollector, step_s: float,
                     n_steps: int) -> None:
        """Called once before the first step of a run."""

    def on_step(self, snapshot: StepSnapshot) -> None:
        """Called after every step with that step's fresh state."""

    def on_run_end(self, result: "SimulationResult") -> None:
        """Called once after the run's result object is assembled."""


@dataclass
class SimulationResult:
    """Everything recorded during one fleet simulation run."""

    #: Network-wide totals on the simulation step grid (Fig. 1).
    total_power: TimeSeries
    total_traffic_bps: TimeSeries
    #: Finalised SNMP traces per router.
    snmp: Dict[str, RouterTrace]
    #: External (Autopower) power series per instrumented router.
    autopower: Dict[str, TimeSeries]
    #: One-time PSU sensor export taken at the end of the run (§9.2).
    sensor_exports: List[PsuSensorExport]
    #: Per-router, per-component energy ledger (``None`` unless the run
    #: was started with ``attribution=True``).
    ledger: Optional["LedgerAccumulator"] = None

    def network_median_power_w(self) -> float:
        """Median of the total network power over the run."""
        return self.total_power.median()


class NetworkSimulation:
    """Drives an :class:`ISPNetwork` through simulated wall-clock time."""

    def __init__(self, network: ISPNetwork, traffic: FleetTrafficModel,
                 rng: Optional[np.random.Generator] = None,
                 start_s: float = 0.0):
        self.network = network
        self.traffic = traffic
        self.rng = rng if rng is not None else np.random.default_rng()
        self.clock_s = start_s
        self.autopower_server = AutopowerServer()
        self.autopower_clients: Dict[str, AutopowerClient] = {}
        self.observers: List[StepObserver] = []
        self._new_external_link_ids: Set[int] = set()
        #: Engine retained from the last ``engine="vector"`` run so
        #: callers (the bench ladder) can read its memory footprint.
        self.last_vector_engine: Optional[VectorizedEngine] = None

    # -- observers ------------------------------------------------------------------

    def add_observer(self, observer: StepObserver) -> StepObserver:
        """Attach a step observer (e.g. the fleet monitor) to this sim."""
        self.observers.append(observer)
        return observer

    def _view_hosts(self) -> tuple:
        """Routers whose objects the vector engine must keep synced:
        Autopower'd hosts plus everything the observers ask for."""
        hosts = dict.fromkeys(self.autopower_clients)
        for observer in self.observers:
            for host in observer.view_hosts():
                if host in self.network.routers:
                    hosts.setdefault(host)
        return tuple(hosts)

    # -- hooks used by events ------------------------------------------------------

    def deploy_autopower(self, hostname: str,
                         transport: Optional[Transport] = None,
                         ) -> AutopowerClient:
        """Install an Autopower unit on a router (power-cycles it).

        ``transport`` lets callers inject uplink outages on the unit.
        """
        router = self.network.router(hostname)
        client = deploy_unit(router, self.autopower_server,
                             rng=np.random.default_rng(
                                 self.rng.integers(2 ** 63)),
                             transport=transport)
        self.autopower_clients[hostname] = client
        return client

    def on_topology_change(self, new_external: Optional[Link] = None) -> None:
        """Notify the traffic model that links were added or removed."""
        if new_external is not None:
            self._new_external_link_ids.add(new_external.link_id)

    # -- traffic application ----------------------------------------------------------

    def _apply_traffic(self, t_s: float) -> float:
        """Set offered traffic on every port; returns total ingress bps."""
        external_rates = self.traffic.external_rates_at(t_s)
        internal_rates = self.traffic.internal_rates_at(t_s)
        total_ingress = 0.0
        for link in self.network.links:
            port_a = self.network.port_of(link.a)
            if link.is_internal:
                rate = internal_rates.get(link.link_id, 0.0)
                rate = min(rate, 0.95 * units.gbps_to_bps(link.speed_gbps))
                port_b = self.network.port_of(link.b)
                port_a.offer_traffic(rx_bps=rate, tx_bps=rate,
                                     packet_bytes=FLEET_PACKET_BYTES)
                port_b.offer_traffic(rx_bps=rate, tx_bps=rate,
                                     packet_bytes=FLEET_PACKET_BYTES)
            else:
                rate = external_rates.get(link.link_id, 0.0)
                if rate == 0.0 and link.link_id in self._new_external_link_ids:
                    # Links added mid-run get a modest default demand.
                    rate = 0.02 * units.gbps_to_bps(link.speed_gbps)
                if not port_a.link_up:
                    rate = 0.0
                port_a.offer_traffic(rx_bps=rate, tx_bps=rate,
                                     packet_bytes=FLEET_PACKET_BYTES)
                total_ingress += rate
        return total_ingress

    # -- the main loop -------------------------------------------------------------------

    def run(self, duration_s: float, step_s: float = 300.0,
            events: Sequence[FleetEvent] = (),
            snmp_period_s: float = units.SNMP_POLL_PERIOD_S,
            detailed_hosts: Optional[Sequence[str]] = None,
            engine: str = "auto",
            attribution: bool = False) -> SimulationResult:
        """Simulate ``duration_s`` seconds of fleet operation.

        Parameters
        ----------
        duration_s, step_s:
            Total simulated time and the stepping resolution.  Traffic,
            counters, and Autopower samples are updated once per step;
            SNMP polls happen every ``snmp_period_s`` (at least once per
            step).
        events:
            Operational events; each fires once when the clock passes its
            ``at_s``.
        detailed_hosts:
            Routers whose interface counters are recorded (all routers'
            power is always recorded).  Defaults to the Autopower'd hosts
            plus any event targets; pass explicitly for full control.
        engine:
            ``"auto"`` (default) uses the vectorized fast path when the
            fleet supports it, ``"vector"`` forces it (raising if the
            fleet does not support it), ``"object"`` forces the original
            per-object loop.  See :mod:`repro.network.engine`; results
            agree within float tolerance (docs/PERFORMANCE.md).
        attribution:
            When ``True``, run an energy attribution ledger alongside the
            simulation: every step each router's wall power is split into
            the named :data:`repro.obs.ledger.COMPONENTS` and checked
            against a hard conservation invariant.  The ledger rides the
            result as ``result.ledger``; attribution never touches
            simulation state or RNG streams, so results are byte-identical
            either way.
        """
        if step_s <= 0 or duration_s <= 0:
            raise ValueError("duration and step must be positive")
        if engine not in ("auto", "vector", "object"):
            raise ValueError(
                f"engine must be 'auto', 'vector' or 'object', got {engine!r}")
        from repro.network.engine import VectorizedEngine, supports_vectorized
        requested = engine
        if engine == "auto":
            engine = ("vector" if supports_vectorized(self.network)
                      else "object")
            if engine == "object":
                M_ENGINE_FALLBACK.inc()
                _log.info("fleet not vectorizable; falling back to the "
                          "object engine")
        elif engine == "vector" and not supports_vectorized(self.network):
            raise ValueError(
                "fleet has PSU configurations the vectorized engine cannot "
                "evaluate; use engine='auto' or engine='object'")
        pending = sorted(events, key=lambda e: e.at_s)
        if detailed_hosts is None:
            detailed = {getattr(e, "hostname", "") for e in pending}
            detailed.discard("")
            detailed |= set(self.autopower_clients)
            detailed_hosts = sorted(h for h in detailed
                                    if h in self.network.routers)
        collector = SnmpCollector(
            list(self.network.routers.values()),
            detailed_hosts=detailed_hosts)
        ledger: Optional["LedgerAccumulator"] = None
        if attribution:
            from repro.obs.ledger import LedgerAccumulator
            # Only a timeline keeps the per-step series that the ledger
            # hands over as counter tracks.
            tracer = tracing.get_tracer()
            ledger = LedgerAccumulator(
                list(self.network.routers),
                track_series=tracer is not None and tracer.timeline)

        n_steps = int(round(duration_s / step_s))
        grid = np.empty(n_steps)
        total_power = np.empty(n_steps)
        total_traffic = np.empty(n_steps)

        M_ENGINE_RUNS.labels(engine=engine).inc()
        with tracing.span("sim.run", sim_clock=lambda: self.clock_s,
                          engine=engine, requested=requested,
                          n_steps=n_steps,
                          routers=len(self.network.routers)):
            for observer in self.observers:
                observer.on_run_start(self, engine, collector, step_s,
                                      n_steps)
            with tracing.span("sim.steps", sim_clock=lambda: self.clock_s):
                if engine == "vector":
                    vec = VectorizedEngine(self)
                    self.last_vector_engine = vec
                    vec.run_steps(
                        n_steps, step_s, pending, collector, snmp_period_s,
                        detailed_hosts, grid, total_power, total_traffic,
                        ledger=ledger)
                else:
                    self._run_steps_object(
                        n_steps, step_s, pending, collector, snmp_period_s,
                        grid, total_power, total_traffic, ledger=ledger)

            with tracing.span("sim.finalize",
                              sim_clock=lambda: self.clock_s):
                for client in self.autopower_clients.values():
                    client.try_upload(self.clock_s)
                autopower = {
                    host: self.autopower_server.download(client.unit_id)
                    for host, client in self.autopower_clients.items()
                }
                if ledger is not None:
                    ledger.finalize()
                    ledger.attach_counter_tracks(tracing.get_tracer())
                result = SimulationResult(
                    total_power=TimeSeries(grid, total_power),
                    total_traffic_bps=TimeSeries(grid, total_traffic),
                    snmp=collector.finalize(),
                    autopower=autopower,
                    sensor_exports=collector.sensor_exports(),
                    ledger=ledger,
                )
                for observer in self.observers:
                    observer.on_run_end(result)
        M_STEPS.labels(engine=engine).inc(n_steps)
        if n_steps:
            M_FLEET_POWER.set(float(total_power[-1]))
            M_FLEET_TRAFFIC.set(float(total_traffic[-1]))
        _log.info("simulation run complete",
                  extra={"engine": engine, "n_steps": n_steps,
                         "routers": len(self.network.routers),
                         "mean_power_w": round(float(total_power.mean()), 3)
                         if n_steps else 0.0})
        return result

    def _run_steps_object(self, n_steps: int, step_s: float, pending,
                          collector: SnmpCollector, snmp_period_s: float,
                          grid: np.ndarray, total_power: np.ndarray,
                          total_traffic: np.ndarray,
                          ledger: Optional["LedgerAccumulator"] = None,
                          ) -> None:
        """The original per-object step loop (reference implementation)."""
        if ledger is not None:
            from repro.network.attribution import router_breakdown
            from repro.obs.ledger import COMPONENTS
        next_poll_s = self.clock_s
        event_idx = 0
        # Kernel spans resolve to a shared no-op context while tracing
        # is disabled (see repro.obs.tracing).
        span = tracing.span
        observing = metrics.enabled()
        observers = self.observers
        step_durations: List[float] = []
        for step in range(n_steps):
            if observing:
                # netpower: ignore[NP-DET-001] -- wall-clock here only
                # feeds the step-latency histogram (an observability
                # side-channel); simulation results never read it.
                step_t0 = time.perf_counter()
            t = self.clock_s
            if event_idx < len(pending) and pending[event_idx].at_s <= t:
                with span("kernel.events"):
                    while (event_idx < len(pending)
                           and pending[event_idx].at_s <= t):
                        M_EVENTS.labels(
                            type=type(pending[event_idx]).__name__).inc()
                        pending[event_idx].apply(self)
                        event_idx += 1
            with span("kernel.apply_traffic"):
                ingress = self._apply_traffic(t)
            with span("kernel.advance_counters"):
                for router in self.network.routers.values():
                    router.advance(step_s)
            self.clock_s += step_s
            t_sample = self.clock_s
            grid[step] = t_sample
            fleet_attr = None
            if ledger is not None:
                # router_breakdown returns the same wall power as
                # wall_power_w(); summed in the same sequential order as
                # total_wall_power_w(), so totals stay byte-identical
                # with attribution on.
                buf = ledger.power_buf
                power_by_host = {}
                total = 0.0
                with span("kernel.wall_power"):
                    for i, (host, router) in enumerate(
                            self.network.routers.items()):
                        wall = router_breakdown(router, buf[i])
                        power_by_host[host] = wall
                        total += wall
                total_power[step] = total
                fleet_attr = ledger.record(
                    t_sample, step_s, buf,
                    np.array(list(power_by_host.values())))
            elif observers:
                # One wall-power read per router, summed in the same
                # sequential order as total_wall_power_w() so the total
                # stays byte-identical with observers attached.
                with span("kernel.wall_power"):
                    power_by_host = {host: router.wall_power_w()
                                     for host, router
                                     in self.network.routers.items()}
                    total = 0.0
                    for value in power_by_host.values():
                        total += value
                total_power[step] = total
            else:
                with span("kernel.wall_power"):
                    total_power[step] = self.network.total_wall_power_w()
            total_traffic[step] = ingress
            polled = t_sample >= next_poll_s
            if polled:
                M_SNMP_POLLS.inc()
                collector.record(t_sample)
                next_poll_s += max(snmp_period_s, step_s)
            if self.autopower_clients:
                with span("kernel.autopower"):
                    for client in self.autopower_clients.values():
                        client.tick(t_sample)
            if observers:
                with span("kernel.observers"):
                    snapshot = StepSnapshot(
                        step=step, t_s=t_sample, step_s=step_s,
                        total_power_w=float(total_power[step]),
                        total_traffic_bps=float(ingress),
                        power_by_host=power_by_host, snmp_polled=polled,
                        attribution=(None if fleet_attr is None else
                                     {name: float(fleet_attr[k])
                                      for k, name in enumerate(COMPONENTS)}))
                    for observer in observers:
                        observer.on_step(snapshot)
            if observing:
                # netpower: ignore[NP-DET-001] -- same side-channel as
                # above: latency only, never simulation state.
                step_durations.append(time.perf_counter() - step_t0)
        if step_durations:
            M_STEP_SECONDS.labels(engine="object").observe_many(
                step_durations)
