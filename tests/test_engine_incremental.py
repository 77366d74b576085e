"""Incremental event-boundary refresh on synthetic fleets.

The columnar engine patches router columns in place at event boundaries
(``FleetState.patch_routers``) instead of rebuilding the whole
configuration, and promises the optimization is *unobservable*: with
``INCREMENTAL_REFRESH`` forced off, the same seeded run must produce
bitwise-identical traces.  These tests drive randomized seeded event
schedules over a generated multi-tier fleet (:mod:`repro.network.synth`)
and compare three runs per schedule -- object, vector-incremental, and
vector-full-rebuild -- plus the generator's own determinism contract and
the observability on/off byte-identity promise at the same scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.transceiver import compatible, transceiver
from repro.network import (
    AddExternalInterface,
    AmbientChange,
    Commission,
    Decommission,
    DegradePsu,
    DeployAutopower,
    FleetInventory,
    FleetTrafficModel,
    HeatWave,
    NetworkSimulation,
    OsUpdate,
    PowerCycle,
    SetAdminState,
    UnplugModule,
    generate_synth_network,
    supports_vectorized,
    synth_config,
)
from repro.network import engine as engine_mod
from repro.network.engine import FleetState
from repro.obs import metrics

PRESET = "synth-200"
STEP_S = 300.0
N_STEPS = 40


def _build(seed: int = 11):
    network = generate_synth_network(synth_config(PRESET),
                                     rng=np.random.default_rng(seed))
    traffic = FleetTrafficModel(network, rng=np.random.default_rng(seed + 1),
                                n_demands=60)
    sim = NetworkSimulation(network, traffic,
                            rng=np.random.default_rng(seed + 2))
    return network, sim


def _random_events(schedule_seed: int, hosts):
    """A seeded random mix of patchable events (no topology reshapes)."""
    rng = np.random.default_rng(schedule_seed)
    events = []
    for _ in range(int(rng.integers(5, 10))):
        at_s = float(rng.integers(1, N_STEPS)) * STEP_S
        host = hosts[int(rng.integers(len(hosts)))]
        kind = int(rng.integers(6))
        if kind == 0:
            events.append(SetAdminState(
                at_s=at_s, hostname=host,
                port_index=int(rng.integers(4)),
                up=bool(rng.integers(2))))
        elif kind == 1:
            events.append(UnplugModule(
                at_s=at_s, hostname=host,
                port_index=int(rng.integers(4))))
        elif kind == 2:
            events.append(PowerCycle(at_s=at_s, hostname=host))
        elif kind == 3:
            events.append(OsUpdate(at_s=at_s, hostname=host))
        elif kind == 4:
            events.append(HeatWave(
                at_s=at_s, ambient_c=25.0 + float(rng.integers(6))))
        else:
            events.append(DeployAutopower(at_s=at_s, hostname=host))
    events.sort(key=lambda e: e.at_s)
    return events


def _run(engine: str, events, incremental: bool = True, seed: int = 11):
    saved = engine_mod.INCREMENTAL_REFRESH
    engine_mod.INCREMENTAL_REFRESH = incremental
    try:
        network, sim = _build(seed)
        result = sim.run(duration_s=N_STEPS * STEP_S, step_s=STEP_S,
                         events=list(events), engine=engine)
    finally:
        engine_mod.INCREMENTAL_REFRESH = saved
    return network, result


def _spare_sfp_port(network):
    """The first unplugged port that takes an SFP-1G-LX module."""
    for host in sorted(network.routers):
        for idx, port in enumerate(network.routers[host].ports):
            if not port.plugged and compatible(
                    port.port_type, transceiver("SFP-1G-LX").model):
                return host, idx
    raise AssertionError("synthetic fleet should keep spare SFP ports")


def _assert_bitwise_identical(r1, r2):
    """Incremental vs full rebuild: every float and counter identical."""
    np.testing.assert_array_equal(r1.total_power.values,
                                  r2.total_power.values)
    np.testing.assert_array_equal(r1.total_traffic_bps.values,
                                  r2.total_traffic_bps.values)
    assert set(r1.snmp) == set(r2.snmp)
    for host in r1.snmp:
        np.testing.assert_array_equal(r1.snmp[host].power.values,
                                      r2.snmp[host].power.values,
                                      err_msg=host)
        for name, tr1 in r1.snmp[host].interfaces.items():
            tr2 = r2.snmp[host].interfaces[name]
            np.testing.assert_array_equal(tr1.rx_octets.counts,
                                          tr2.rx_octets.counts,
                                          err_msg=f"{host}/{name}")
            np.testing.assert_array_equal(tr1.tx_packets.counts,
                                          tr2.tx_packets.counts,
                                          err_msg=f"{host}/{name}")


def _assert_matches_object(net_obj, r_obj, net_vec, r_vec):
    """Vector vs object: power within 1e-9, counters exactly equal."""
    np.testing.assert_allclose(r_obj.total_power.values,
                               r_vec.total_power.values, rtol=1e-9)
    np.testing.assert_allclose(r_obj.total_traffic_bps.values,
                               r_vec.total_traffic_bps.values, rtol=1e-9)
    for host in net_obj.routers:
        c1 = net_obj.routers[host].interface_counters()
        c2 = net_vec.routers[host].interface_counters()
        assert set(c1) == set(c2)
        for name in c1:
            assert c1[name].rx_octets == c2[name].rx_octets, (host, name)
            assert c1[name].tx_packets == c2[name].tx_packets, (host, name)


class TestSynthFleetEquivalence:
    def test_synth_fleet_is_vectorizable(self):
        network, _ = _build()
        assert supports_vectorized(network)

    @pytest.mark.parametrize("schedule_seed", [101, 202, 303])
    def test_random_schedule_incremental_full_and_object_agree(
            self, schedule_seed):
        hosts = sorted(_build()[0].routers)
        events = _random_events(schedule_seed, hosts)
        net_obj, r_obj = _run("object", events)
        net_inc, r_inc = _run("vector", events, incremental=True)
        net_full, r_full = _run("vector", events, incremental=False)
        _assert_bitwise_identical(r_inc, r_full)
        _assert_matches_object(net_obj, r_obj, net_inc, r_inc)

    def test_incremental_path_actually_ran(self):
        hosts = sorted(_build()[0].routers)
        events = _random_events(101, hosts)
        with metrics.use_registry(metrics.MetricsRegistry()) as reg:
            _run("vector", events, incremental=True)
            partial = reg.get(
                "netpower_sim_engine_partial_refresh_total")
            patched = reg.get(
                "netpower_sim_engine_router_columns_patched_total")
            assert partial is not None and partial.default().value > 0
            assert patched is not None and patched.default().value > 0

    def test_topology_reshape_forces_full_rebuild(self):
        network, _ = _build()
        target = _spare_sfp_port(network)
        events = [AddExternalInterface(at_s=5 * STEP_S, hostname=target[0],
                                       port_index=target[1],
                                       trx_name="SFP-1G-LX")]
        with metrics.use_registry(metrics.MetricsRegistry()) as reg:
            _, r_inc = _run("vector", events, incremental=True)
            partial = reg.get("netpower_sim_engine_partial_refresh_total")
            refresh = reg.get("netpower_sim_engine_refresh_total")
            # The reshape must fall back to a full rebuild: at least two
            # refreshes (construction + the boundary), zero patches.
            assert partial is None or partial.default().value == 0
            assert refresh is not None and refresh.default().value >= 2
        _, r_full = _run("vector", events, incremental=False)
        _assert_bitwise_identical(r_inc, r_full)


#: Configuration columns of a FleetState, besides its psu_* columns.
_CONFIG_COLUMNS = (
    # Per-port statics and masks.
    "static_w", "trx_in_w", "port_w", "trx_up_w", "sleep_w", "p_offset_w",
    "e_bit_j", "e_pkt_j", "link_up", "_has_truth", "dyn_ok", "port_powered",
    # Router and sensor scalars.
    "powered", "base_fixed", "noise_std", "sensor_kind", "report_offset_w",
    "report_quantum_w", "sensor_bias_w", "sensor_basis_w",
    # The five per-router sums.
    "static_sum", "trx_in_sum", "port_sum", "trx_up_sum", "sleep_sum",
    # Row bounds.
    "_router_start", "_router_stop", "_psu_row_start", "_psu_row_stop",
)


def _column_schedule(network, reshape: bool):
    """One of every patchable event kind, plus an optional reshape.

    The fleet-wide events come first: a HeatWave patches every router
    and a reshape rebuilds every column, so either would overwrite a
    stale column that an earlier event left behind.
    """
    hosts = sorted(network.routers)
    internal = [link for link in network.links if link.is_internal]
    toggled, pulled = internal[0].a, internal[1].b
    degraded = hosts[4]
    assert len(network.routers[degraded].psu_group.instances) >= 2
    events = [
        HeatWave(at_s=2 * STEP_S, ambient_c=31.0),
        AmbientChange(at_s=4 * STEP_S, hostname=hosts[6], ambient_c=27.0),
        SetAdminState(at_s=5 * STEP_S, hostname=toggled.hostname,
                      port_index=toggled.port_index, up=False),
        UnplugModule(at_s=7 * STEP_S, hostname=pulled.hostname,
                     port_index=pulled.port_index),
        PowerCycle(at_s=9 * STEP_S, hostname=hosts[2]),
        OsUpdate(at_s=11 * STEP_S, hostname=hosts[3]),
        DegradePsu(at_s=13 * STEP_S, hostname=degraded, psu_index=0,
                   efficiency_delta=-0.05),
        DegradePsu(at_s=15 * STEP_S, hostname=degraded, psu_index=1,
                   efficiency_delta=-0.03),
        Decommission(at_s=17 * STEP_S, hostname=hosts[5]),
        DeployAutopower(at_s=21 * STEP_S, hostname=hosts[7]),
        Commission(at_s=25 * STEP_S, hostname=hosts[5]),
    ]
    if reshape:
        host, idx = _spare_sfp_port(network)
        events.append(AddExternalInterface(
            at_s=3 * STEP_S, hostname=host, port_index=idx,
            trx_name="SFP-1G-LX"))
    return sorted(events, key=lambda e: e.at_s)


class TestColumnsEqualAFreshBuild:
    """After a run, the patched columns must equal a fresh build's.

    The output tests only see the columns the kernels read; this one
    compares every configuration column byte for byte with a
    FleetState built from the post-run objects, so a column that one
    writer leaves stale shows here before any output reads it.
    """

    @pytest.mark.parametrize("reshape", [False, True],
                             ids=["patches", "patches+rebuild"])
    def test_configuration_columns_match(self, reshape):
        network, sim = _build()
        events = _column_schedule(network, reshape)
        with metrics.use_registry(metrics.MetricsRegistry()) as reg:
            sim.run(duration_s=N_STEPS * STEP_S, step_s=STEP_S,
                    events=events, engine="vector")
            refresh = reg.get("netpower_sim_engine_refresh_total")
            assert refresh.default().value == (2 if reshape else 1)
            patched = reg.get(
                "netpower_sim_engine_router_columns_patched_total")
            assert patched.default().value > len(network.routers)
        state = sim.last_vector_engine.state
        fresh = FleetState(network, sim.traffic,
                           new_external_link_ids=sim._new_external_link_ids,
                           view_hosts=sim._view_hosts())
        psu_columns = sorted(
            name for name, value in vars(fresh).items()
            if name.startswith("psu_") and isinstance(value, np.ndarray))
        assert len(psu_columns) == 8
        for name in _CONFIG_COLUMNS + tuple(psu_columns):
            got, want = getattr(state, name), getattr(fresh, name)
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


class TestSynthDeterminism:
    def test_same_seed_builds_byte_identical_fleet(self):
        net1 = generate_synth_network(synth_config(PRESET),
                                      rng=np.random.default_rng(11))
        net2 = generate_synth_network(synth_config(PRESET),
                                      rng=np.random.default_rng(11))
        json1 = FleetInventory.capture(net1).to_json()
        json2 = FleetInventory.capture(net2).to_json()
        assert json1 == json2

    def test_different_seed_differs(self):
        net1 = generate_synth_network(synth_config(PRESET),
                                      rng=np.random.default_rng(11))
        net2 = generate_synth_network(synth_config(PRESET),
                                      rng=np.random.default_rng(12))
        assert (FleetInventory.capture(net1).to_json()
                != FleetInventory.capture(net2).to_json())

    def test_same_seed_runs_byte_identical(self):
        _, r1 = _run("vector", _random_events(202, sorted(_build()[0].routers)))
        _, r2 = _run("vector", _random_events(202, sorted(_build()[0].routers)))
        _assert_bitwise_identical(r1, r2)


class TestObservabilityByteIdentity:
    """Metrics on vs off must not change a single simulated byte."""

    def test_live_registry_run_is_bitwise_identical(self):
        hosts = sorted(_build()[0].routers)
        events = _random_events(303, hosts)
        _, bare = _run("vector", events)
        with metrics.use_registry(metrics.MetricsRegistry()):
            _, observed = _run("vector", events)
        _assert_bitwise_identical(bare, observed)
