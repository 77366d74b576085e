"""The vectorized engine must reproduce the object loop's results.

The columnar engine (:mod:`repro.network.engine`) promises stream-exact
RNG consumption and float-association-exact arithmetic, so two fleets
built from identical seeds and run through the two engines must agree on
every observable: total power and traffic, per-router SNMP power traces,
interface counters (exact integer equality), Autopower series, sensor
exports, and the post-run object state.  These tests run the comparison
with and without a mid-run event mix that exercises every invalidation
path (topology changes, power cycles, Autopower deployment, thermal
events).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import (
    AddExternalInterface,
    Commission,
    Decommission,
    DeployAutopower,
    FleetConfig,
    FleetTrafficModel,
    HeatWave,
    NetworkSimulation,
    OsUpdate,
    PowerCycle,
    SetAdminState,
    UnplugModule,
    build_switch_like_network,
    supports_vectorized,
)

CONFIG = FleetConfig(
    model_counts=(("8201-32FH", 2), ("NCS-55A1-24H", 3),
                  ("NCS-55A1-24Q6H-SS", 3), ("ASR-920-24SZ-M", 6),
                  ("N540-24Z8Q2C-M", 4)),
    n_regional_pops=3, core_core_links=2)


def _build():
    network = build_switch_like_network(CONFIG, rng=np.random.default_rng(7))
    traffic = FleetTrafficModel(network, rng=np.random.default_rng(8))
    sim = NetworkSimulation(network, traffic, rng=np.random.default_rng(9))
    return network, sim


def _event_mix():
    """One of everything, aimed at stable hostnames of the test fleet."""
    network, _ = _build()
    hosts = sorted(network.routers)
    h0, h1, h2, h3 = hosts[0], hosts[3], hosts[6], hosts[10]
    return h2, [
        SetAdminState(at_s=1800, hostname=h0, port_index=0, up=False),
        UnplugModule(at_s=3600, hostname=h1, port_index=1),
        DeployAutopower(at_s=5400, hostname=h2),
        OsUpdate(at_s=7200, hostname=h0),
        PowerCycle(at_s=9000, hostname=h1),
        Decommission(at_s=10800, hostname=h3),
        Commission(at_s=14400, hostname=h3),
        AddExternalInterface(at_s=16200, hostname=h3, port_index=6,
                             trx_name="SFP-1G-LX"),
        HeatWave(at_s=18000, ambient_c=29.0),
    ]


def _run_both(duration_s, events=()):
    net1, sim1 = _build()
    r1 = sim1.run(duration_s=duration_s, step_s=300.0, events=list(events),
                  engine="object")
    net2, sim2 = _build()
    r2 = sim2.run(duration_s=duration_s, step_s=300.0, events=list(events),
                  engine="vector")
    return (net1, r1), (net2, r2)


def _assert_results_match(net1, r1, net2, r2):
    np.testing.assert_allclose(r1.total_power.values, r2.total_power.values,
                               rtol=1e-9)
    np.testing.assert_allclose(r1.total_traffic_bps.values,
                               r2.total_traffic_bps.values, rtol=1e-9)
    assert set(r1.snmp) == set(r2.snmp)
    for host in r1.snmp:
        p1, p2 = r1.snmp[host].power.values, r2.snmp[host].power.values
        nan1, nan2 = np.isnan(p1), np.isnan(p2)
        assert (nan1 == nan2).all(), host
        np.testing.assert_allclose(p1[~nan1], p2[~nan1], rtol=1e-9,
                                   err_msg=host)
        assert set(r1.snmp[host].interfaces) == set(r2.snmp[host].interfaces)
        for name, tr1 in r1.snmp[host].interfaces.items():
            tr2 = r2.snmp[host].interfaces[name]
            np.testing.assert_array_equal(
                tr1.rx_octets.counts, tr2.rx_octets.counts,
                err_msg=f"{host}/{name}")
            np.testing.assert_array_equal(
                tr1.tx_packets.counts, tr2.tx_packets.counts,
                err_msg=f"{host}/{name}")
    assert set(r1.autopower) == set(r2.autopower)
    for host in r1.autopower:
        np.testing.assert_allclose(r1.autopower[host].values,
                                   r2.autopower[host].values,
                                   rtol=1e-9, err_msg=host)
    assert len(r1.sensor_exports) == len(r2.sensor_exports) > 0
    for e1, e2 in zip(r1.sensor_exports, r2.sensor_exports):
        np.testing.assert_allclose([e1.input_w, e1.output_w],
                                   [e2.input_w, e2.output_w], rtol=1e-9)
    # The engines must leave the object world in the same state too,
    # each router's generator included.
    for host in net1.routers:
        a, b = net1.routers[host], net2.routers[host]
        assert a.rng.bit_generator.state == b.rng.bit_generator.state, host
        assert a._pseudo_constant_basis == b._pseudo_constant_basis, host
        assert a._sensor_bias_w == b._sensor_bias_w, host
        assert a._noise_state == b._noise_state, host
        c1 = net1.routers[host].interface_counters()
        c2 = net2.routers[host].interface_counters()
        assert set(c1) == set(c2)
        for name in c1:
            assert c1[name].rx_octets == c2[name].rx_octets, (host, name)
            assert c1[name].tx_octets == c2[name].tx_octets, (host, name)
            assert c1[name].rx_packets == c2[name].rx_packets, (host, name)
            assert c1[name].tx_packets == c2[name].tx_packets, (host, name)


class TestEngineEquivalence:
    def test_fleet_is_vectorizable(self):
        network, _ = _build()
        assert supports_vectorized(network)

    def test_plain_run_matches(self):
        (net1, r1), (net2, r2) = _run_both(duration_s=3600 * 4)
        _assert_results_match(net1, r1, net2, r2)

    def test_event_mix_matches(self):
        autopower_host, events = _event_mix()
        (net1, r1), (net2, r2) = _run_both(duration_s=3600 * 8,
                                           events=events)
        assert set(r1.autopower) == {autopower_host}
        _assert_results_match(net1, r1, net2, r2)


class TestEngineSelection:
    def test_auto_is_default_and_valid(self):
        _, sim = _build()
        result = sim.run(duration_s=1800, step_s=300.0)
        assert len(result.total_power.values) == 6

    def test_invalid_engine_rejected(self):
        _, sim = _build()
        with pytest.raises(ValueError, match="engine"):
            sim.run(duration_s=1800, step_s=300.0, engine="warp")
