"""The fleet monitor: a StepObserver tying rollups, drift and alerts.

Attach a :class:`FleetMonitor` to a :class:`NetworkSimulation` before
``run()`` and it continuously maintains, for every tracked router, the
three §6.2 power signals (model prediction, PSU/SNMP telemetry,
Autopower measurement) plus the §9.4 PSU-efficiency channel:

* every step: fleet totals, per-router wall power, Autopower samples
  into the fixed-memory rollup store;
* every SNMP poll: PSU-reported power, the live model prediction
  (bitwise-identical to the offline pipeline at the poll timestamps),
  the model-vs-Autopower residual into the drift tracker, and the
  deterministic per-PSU efficiency into the health tracker;
* alert rules evaluated on each observation, staleness checks at poll
  cadence.

The monitor is strictly read-only with respect to simulation state and
never draws from any RNG stream, so a seeded run produces byte-identical
outputs with or without it attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.model import PowerModel
from repro.network.simulation import (NetworkSimulation, SimulationResult,
                                      StepObserver, StepSnapshot)
from repro.obs import logging as obslog
from repro.obs import tracing
from repro.telemetry.snmp import SnmpCollector
from repro.telemetry.sources import (AutopowerSource, CounterRateModelSource,
                                     PsuEfficiencySource, SnmpPowerSource)
from repro.validation.compare import AVERAGING_WINDOW_S
from repro.monitor.alerts import AlertEngine, AlertRule, RuleKind, Severity
from repro.monitor.drift import DriftTracker, PsuHealthTracker
from repro.monitor.rollup import DEFAULT_RESOLUTIONS, RollupStore

_log = obslog.get_logger("monitor")


def default_rules() -> List[AlertRule]:
    """The stock alerting policy.

    One rule per failure mode the paper documents: PSU efficiency
    degradation (§9.4), model drift away from the external measurement
    (§6.2's offset, live), a silent Autopower unit (the store-and-forward
    outages of §5), and abrupt fleet-power steps (the Fig. 1
    commission/decommission edges).
    """
    return [
        AlertRule(
            name="psu-efficiency-drop",
            kind=RuleKind.THRESHOLD,
            signals="psu_efficiency_drop/*",
            severity=Severity.CRITICAL,
            above=0.02, clear_above=0.01,
            description="PSU efficiency fell >2 % below its baseline"),
        AlertRule(
            name="psu-efficiency-floor",
            kind=RuleKind.THRESHOLD,
            signals="psu_efficiency/*",
            severity=Severity.WARNING,
            below=0.50, clear_below=0.55,
            description="PSU conversion efficiency below the 50 % floor"),
        AlertRule(
            name="model-drift-z",
            kind=RuleKind.ZSCORE,
            signals="model_residual_w/*",
            severity=Severity.WARNING,
            z_threshold=6.0, z_clear=3.0, min_samples=12,
            description="model-vs-measurement residual left its band"),
        AlertRule(
            name="autopower-stale",
            kind=RuleKind.STALENESS,
            signals="autopower_w/*",
            severity=Severity.WARNING,
            stale_after_s=1800.0,
            description="no Autopower sample for 30 minutes"),
        AlertRule(
            name="fleet-power-step",
            kind=RuleKind.RATE_OF_CHANGE,
            signals="fleet/total_power_w",
            severity=Severity.INFO,
            rate_above=1.0, rate_below=-1.0,
            description="network total moved faster than diurnal drift"),
    ]


@dataclass
class MonitorConfig:
    """Tunables of one :class:`FleetMonitor`."""

    #: Routers to track per-source; None tracks the run's detailed hosts
    #: plus every Autopower'd router.
    hosts: Optional[Sequence[str]] = None
    window_s: float = float(AVERAGING_WINDOW_S)
    resolutions: Tuple[float, ...] = DEFAULT_RESOLUTIONS
    raw_capacity: int = 4096
    rollup_capacity: int = 1024
    ewma_alpha: float = 0.1
    psu_baseline_samples: int = 3
    #: None installs :func:`default_rules`.
    rules: Optional[Sequence[AlertRule]] = None


class FleetMonitor(StepObserver):
    """Continuous §6.2/§9.4 monitoring attached to a running simulation.

    Parameters
    ----------
    models:
        ``router model name -> PowerModel`` for the live prediction; hosts
        whose product has no model simply lack the model/drift signals.
    config:
        See :class:`MonitorConfig`.
    """

    def __init__(self, models: Optional[Dict[str, PowerModel]] = None,
                 config: Optional[MonitorConfig] = None):
        self.models = dict(models or {})
        self.config = config or MonitorConfig()
        self.store = RollupStore(
            raw_capacity=self.config.raw_capacity,
            rollup_capacity=self.config.rollup_capacity,
            resolutions=self.config.resolutions)
        rules = (default_rules() if self.config.rules is None
                 else list(self.config.rules))
        self.alerts = AlertEngine(rules)
        self.psu_health = PsuHealthTracker(
            baseline_samples=self.config.psu_baseline_samples)
        self.drift: Dict[str, DriftTracker] = {}
        self.hosts: Tuple[str, ...] = tuple(self.config.hosts or ())
        self.engine_name: Optional[str] = None
        self.step_s: Optional[float] = None
        self.n_steps: Optional[int] = None
        self.start_s: Optional[float] = None
        self.result: Optional[SimulationResult] = None
        self._snmp: Optional[SnmpPowerSource] = None
        self._autopower: Optional[AutopowerSource] = None
        self._model: Optional[CounterRateModelSource] = None
        self._efficiency: Optional[PsuEfficiencySource] = None
        self._last_t_s: Optional[float] = None
        #: Fleet attribution rollup, fed by ``StepSnapshot.attribution``
        #: when the run carries an energy ledger (``None`` otherwise).
        self.attribution_energy_j: Optional[Dict[str, float]] = None
        self.attribution_last_w: Optional[Dict[str, float]] = None
        self.attribution_steps: int = 0

    # -- StepObserver ---------------------------------------------------------------

    def view_hosts(self) -> Sequence[str]:
        """Tracked routers need synced objects (device-power reads)."""
        return self.hosts

    def on_run_start(self, sim: NetworkSimulation, engine: str,
                     collector: SnmpCollector, step_s: float,
                     n_steps: int) -> None:
        """Attach to a run: remember the engine and log the rule set."""
        self.engine_name = engine
        self.step_s = step_s
        self.n_steps = n_steps
        self.start_s = sim.clock_s
        if self.config.hosts is None:
            hosts = set(collector.detailed_hosts) | set(sim.autopower_clients)
            self.hosts = tuple(sorted(
                h for h in hosts if h in sim.network.routers))
        else:
            self.hosts = tuple(h for h in self.config.hosts
                               if h in sim.network.routers)
        self._snmp = SnmpPowerSource(collector)
        self._autopower = AutopowerSource(sim.autopower_clients)
        self._model = CounterRateModelSource(collector, self.models)
        self._efficiency = PsuEfficiencySource(
            {h: sim.network.routers[h] for h in self.hosts})
        for host in self.hosts:
            self.drift[host] = DriftTracker(
                host, f"model_power_w/{host}", f"autopower_w/{host}",
                self.store, window_s=self.config.window_s,
                ewma_alpha=self.config.ewma_alpha)
            if host in sim.autopower_clients:
                self.alerts.register_signal(f"autopower_w/{host}",
                                            sim.clock_s)
        _log.info("fleet monitor attached", extra={
            "engine": engine, "hosts": len(self.hosts),
            "rules": len(self.alerts.rules)})

    def on_step(self, snapshot: StepSnapshot) -> None:
        """Ingest one step: rollups, drift tracking, alert evaluation."""
        with tracing.span("kernel.monitor_rollup"):
            self._on_step(snapshot)

    def _on_step(self, snapshot: StepSnapshot) -> None:
        t = snapshot.t_s
        self._last_t_s = t
        store = self.store
        alerts = self.alerts
        store.add("fleet/total_power_w", t, snapshot.total_power_w)
        alerts.observe("fleet/total_power_w", t, snapshot.total_power_w)
        store.add("fleet/total_traffic_bps", t,
                  snapshot.total_traffic_bps)
        if snapshot.attribution is not None:
            if self.attribution_energy_j is None:
                self.attribution_energy_j = dict.fromkeys(
                    snapshot.attribution, 0.0)
            for name, watts in snapshot.attribution.items():
                self.attribution_energy_j[name] += watts * snapshot.step_s
                store.add(f"fleet/attribution/{name}", t, watts)
            self.attribution_last_w = dict(snapshot.attribution)
            self.attribution_steps += 1
        fresh_autopower: Dict[str, float] = {}
        for host in self.hosts:
            wall = snapshot.power_by_host.get(host)
            if wall is not None:
                store.add(f"wall_power_w/{host}", t, wall)
            measured = self._autopower.sample(host, t)
            if measured is not None:
                fresh_autopower[host] = measured
                store.add(f"autopower_w/{host}", t, measured)
                alerts.observe(f"autopower_w/{host}", t, measured)
        if snapshot.snmp_polled:
            self._on_poll(t, fresh_autopower)
            alerts.evaluate(t)
            store.flush_metrics()

    def _on_poll(self, t: float, fresh_autopower: Dict[str, float]) -> None:
        store = self.store
        alerts = self.alerts
        for host in self.hosts:
            reported = self._snmp.sample(host, t)
            if reported is not None:
                store.add(f"psu_power_w/{host}", t, reported)
                alerts.observe(f"psu_power_w/{host}", t, reported)
            predicted = self._model.sample(host, t)
            if predicted is not None:
                store.add(f"model_power_w/{host}", t, predicted)
                measured = fresh_autopower.get(host)
                if measured is not None:
                    residual = predicted - measured
                    store.add(f"model_residual_w/{host}", t, residual)
                    alerts.observe(f"model_residual_w/{host}", t, residual)
                    self.drift[host].update(t, predicted, measured)
            for index, input_w, output_w, capacity_w in \
                    self._efficiency.sample(host, t):
                efficiency = (min(1.0, output_w / input_w)
                              if input_w > 0 else 0.0)
                signal = f"psu_efficiency/{host}/psu{index}"
                store.add(signal, t, efficiency)
                alerts.observe(signal, t, efficiency)
                drop = self.psu_health.record(
                    host, index, t, input_w, output_w, capacity_w)
                if drop is not None:
                    drop_signal = f"psu_efficiency_drop/{host}/psu{index}"
                    store.add(drop_signal, t, drop)
                    alerts.observe(drop_signal, t, drop)

    def on_run_end(self, result: SimulationResult) -> None:
        """Finalize rollups and drift trackers at the end of a run."""
        self.result = result
        self.store.finalize()
        for tracker in self.drift.values():
            tracker.refresh()
        if self._last_t_s is not None:
            self.alerts.evaluate(self._last_t_s)
        self.store.flush_metrics()
        _log.info("fleet monitor run complete", extra={
            "signals": len(self.store.names()),
            "alerts": len(self.alerts.alerts)})
