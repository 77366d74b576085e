"""End-to-end fleet monitoring: §6.2 parity, alerts, determinism.

The acceptance criteria of the monitoring subsystem:

* the live per-router model-vs-Autopower drift must report the same
  constant offset (within 1 %) as the offline §6.2 comparison over the
  identical run;
* an injected PSU-efficiency degradation raises exactly one
  (deduplicated) ``psu-efficiency-drop`` alert;
* attaching the monitor leaves the seeded simulation outputs
  byte-identical;
* the dashboard snapshot is byte-identical across same-seed runs, with
  the obs registry installed or not, and validates against the
  checked-in schema.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import units
from repro.cli import lab_models
from repro.hardware import VirtualRouter, connect, router_spec
from repro.monitor import FleetMonitor, build_snapshot, snapshot_json
from repro.monitor.schema import validate as validate_schema
from repro.network import (DegradePsu, FleetConfig, FleetTrafficModel,
                           NetworkSimulation, build_switch_like_network)
from repro.obs import metrics, tracing
from repro.telemetry.snmp import SnmpCollector
from repro.telemetry.sources import CounterRateModelSource
from repro.validation.compare import compare_series, predict_from_trace

SEED = 7
STEP_S = 900.0
DURATION_S = units.days(0.5)

SMALL = FleetConfig(
    model_counts=(("8201-32FH", 1), ("NCS-55A1-24H", 2),
                  ("ASR-920-24SZ-M", 2)),
    n_regional_pops=1, core_core_links=1)


@pytest.fixture(scope="module")
def models():
    return lab_models(SEED)


def _build_sim(seed=SEED):
    network = build_switch_like_network(
        SMALL, rng=np.random.default_rng(seed))
    targets = {}
    for model_name in ("8201-32FH", "NCS-55A1-24H"):
        targets[model_name] = next(
            h for h in sorted(network.routers)
            if network.routers[h].model_name == model_name)
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(seed + 1),
        mean_external_utilisation=0.05, internal_utilisation_scale=6.0)
    sim = NetworkSimulation(network, traffic,
                            rng=np.random.default_rng(seed + 2))
    for hostname in targets.values():
        sim.deploy_autopower(hostname)
    return sim, targets


def _run_monitored(models, engine, seed=SEED, inject=False):
    sim, targets = _build_sim(seed)
    monitor = FleetMonitor(models=models)
    sim.add_observer(monitor)
    events = []
    if inject:
        events.append(DegradePsu(
            at_s=DURATION_S / 2, hostname=targets["8201-32FH"],
            psu_index=0, efficiency_delta=-0.05))
    result = sim.run(duration_s=DURATION_S, step_s=STEP_S, events=events,
                     detailed_hosts=sorted(targets.values()),
                     engine=engine)
    return monitor, result, targets


@pytest.fixture(scope="module")
def vector_run(models):
    return _run_monitored(models, "vector")


@pytest.fixture(scope="module")
def object_run(models):
    return _run_monitored(models, "object")


class TestOfflineParity:
    """The live drift offset == the offline §6.2 offset (within 1 %)."""

    def _check(self, run, models):
        monitor, result, targets = run
        checked = 0
        for model_name, host in targets.items():
            offline = compare_series(
                predict_from_trace(models[model_name], result.snmp[host]),
                result.autopower[host])
            live = monitor.drift[host].estimate()
            assert live is not None, f"no drift estimate for {host}"
            tolerance = 0.01 * max(1.0, abs(offline.offset_w))
            assert abs(live.offset_w - offline.offset_w) <= tolerance, (
                f"{host}: live offset {live.offset_w} vs offline "
                f"{offline.offset_w}")
            assert live.stats.n_samples == offline.n_samples
            assert live.verdict() == offline.verdict().name
            checked += 1
        assert checked == 2

    def test_vector_engine(self, vector_run, models):
        self._check(vector_run, models)

    def test_object_engine(self, object_run, models):
        self._check(object_run, models)

    def test_live_model_series_matches_offline_prediction(
            self, vector_run, models):
        """The streaming prediction equals the offline pipeline's."""
        monitor, result, targets = vector_run
        for model_name, host in targets.items():
            offline = predict_from_trace(models[model_name],
                                         result.snmp[host])
            live = monitor.store.get(f"model_power_w/{host}").raw.series()
            assert len(live) == len(offline)
            np.testing.assert_allclose(live.values, offline.values,
                                       rtol=1e-9, atol=1e-9)

    def test_live_autopower_ring_matches_result(self, vector_run):
        monitor, result, targets = vector_run
        for host in targets.values():
            ring = monitor.store.get(f"autopower_w/{host}").raw.series()
            np.testing.assert_array_equal(ring.values,
                                          result.autopower[host].values)


class TestInjectedPsuFault:
    @pytest.mark.parametrize("engine", ["vector", "object"])
    def test_exactly_one_deduplicated_alert(self, models, engine):
        monitor, _result, targets = _run_monitored(models, engine,
                                                   inject=True)
        target = targets["8201-32FH"]
        fired = [a for a in monitor.alerts.alerts
                 if a.rule == "psu-efficiency-drop"]
        assert len(fired) == 1, (
            f"expected exactly one psu-efficiency-drop alert, got "
            f"{[(a.rule, a.signal, a.fired_at_s) for a in fired]}")
        alert = fired[0]
        assert alert.signal == f"psu_efficiency_drop/{target}/psu0"
        assert alert.severity.value == "critical"
        assert alert.active                       # never falsely resolved
        assert alert.fired_at_s >= DURATION_S / 2
        assert alert.value > 0.02                 # the rule's bound

    def test_no_fault_no_psu_alert(self, vector_run):
        monitor, _, _ = vector_run
        assert not [a for a in monitor.alerts.alerts
                    if a.rule == "psu-efficiency-drop"]


class TestMonitorIsNonPerturbing:
    @pytest.mark.parametrize("engine", ["vector", "object"])
    def test_simulation_outputs_unchanged(self, models, engine):
        sim_bare, targets = _build_sim()
        bare = sim_bare.run(duration_s=DURATION_S, step_s=STEP_S,
                            detailed_hosts=sorted(targets.values()),
                            engine=engine)
        monitored = _run_monitored(models, engine)[1]
        np.testing.assert_array_equal(bare.total_power.values,
                                      monitored.total_power.values)
        np.testing.assert_array_equal(bare.total_traffic_bps.values,
                                      monitored.total_traffic_bps.values)
        for host in bare.autopower:
            np.testing.assert_array_equal(
                bare.autopower[host].values,
                monitored.autopower[host].values)


class TestDashboardDeterminism:
    def _alert_key(self, monitor):
        return [(a.rule, a.signal, a.fired_at_s, a.resolved_at_s, a.value)
                for a in monitor.alerts.alerts]

    @pytest.mark.parametrize("engine", ["vector", "object"])
    def test_same_seed_byte_identical_snapshot(self, models, engine):
        first = _run_monitored(models, engine)
        second = _run_monitored(models, engine)
        assert snapshot_json(build_snapshot(first[0])) == \
            snapshot_json(build_snapshot(second[0]))
        assert self._alert_key(first[0]) == self._alert_key(second[0])

    def test_obs_registry_does_not_change_snapshot(self, models,
                                                   vector_run):
        baseline = snapshot_json(build_snapshot(vector_run[0]))
        with metrics.use_registry(metrics.MetricsRegistry()):
            with tracing.use_tracer(tracing.Tracer()):
                observed = _run_monitored(models, "vector")
        assert snapshot_json(build_snapshot(observed[0])) == baseline
        assert self._alert_key(observed[0]) == \
            self._alert_key(vector_run[0])

    def test_monitor_metrics_are_published(self, models):
        registry = metrics.MetricsRegistry()
        with metrics.use_registry(registry):
            monitor, _, _ = _run_monitored(models, "vector")
        samples = registry.get("netpower_monitor_rollup_samples_total")
        assert samples.default().value > 0


class TestDashboardSchema:
    def test_snapshot_validates_against_checked_in_schema(self,
                                                          vector_run):
        snapshot = json.loads(snapshot_json(build_snapshot(
            vector_run[0])))
        schema_path = (Path(__file__).resolve().parent.parent / "docs"
                       / "schemas" / "dashboard.schema.json")
        schema = json.loads(schema_path.read_text())
        errors = validate_schema(snapshot, schema)
        assert errors == [], "\n".join(errors)

    def test_validator_rejects_corrupted_snapshot(self, vector_run):
        snapshot = json.loads(snapshot_json(build_snapshot(
            vector_run[0])))
        schema_path = (Path(__file__).resolve().parent.parent / "docs"
                       / "schemas" / "dashboard.schema.json")
        schema = json.loads(schema_path.read_text())
        snapshot["schema"] = "wrong/v0"
        del snapshot["scenario"]["engine"]
        snapshot["alerts"] = [{"rule": 5}]
        errors = validate_schema(snapshot, schema)
        assert len(errors) >= 3


class TestLiveModuleSwap:
    def test_in_place_trx_swap_updates_the_live_prediction(self, models):
        # Regression: the live source's fast path compared interface
        # names only, so swapping a module in place (same name, new
        # transceiver) kept predicting with the old module's curve.
        router = VirtualRouter(router_spec("NCS-55A1-24H"),
                               hostname="swap-ncs",
                               rng=np.random.default_rng(99))
        for i in range(2):
            router.port(i).plug("QSFP28-100G-DAC")
            router.port(i).set_admin(True)
        connect(router.port(0), router.port(1))
        router.port(0).offer_traffic(rx_bps=4e9, tx_bps=4e9,
                                     packet_bytes=700)
        collector = SnmpCollector([router])
        for t in (300.0, 600.0):
            router.advance(300)
            collector.record(t)
        source = CounterRateModelSource(collector, models)
        before = source.sample("swap-ncs", 600.0)
        assert before is not None

        router.port(0).unplug()
        router.port(0).plug("QSFP28-100G-LR4")
        router.advance(300)
        collector.record(900.0)
        after = source.sample("swap-ncs", 900.0)
        fresh = CounterRateModelSource(collector, models).sample(
            "swap-ncs", 900.0)
        # The long-lived source must agree with a cache-free one...
        assert after == fresh
        # ...and the swap must actually show (LR4 idles hotter than DAC;
        # the offered traffic is constant, so any change is the module).
        assert after != before
