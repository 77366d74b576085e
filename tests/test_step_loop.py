"""One step loop drives both engines: generated schedules, one power read.

``NetworkSimulation.run`` owns the step sequence -- events, advance,
wall power, SNMP poll, view sync, Autopower, observers -- and each
engine supplies only its kernels.  Hypothesis draws the step size, the
SNMP period (below, equal to, and a non-multiple above the step), the
run length and a mix of every ``FleetEvent`` type, with event times at
0, tied, and past the end of the run.  Each schedule runs on the object
engine, the vector engine and the vector engine with
``INCREMENTAL_REFRESH`` off, and the cadence the loop owns must come
out the same on all three, as must each router's generator position
and noise and sensor state after the run (the vector engine draws the
routers' normals a block at a time and must settle each generator
where the object engine's scalar draws leave it).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.router import VirtualRouter
from repro.hardware.transceiver import compatible, transceiver
from repro.network import (
    AddExternalInterface,
    AmbientChange,
    Commission,
    Decommission,
    DegradePsu,
    DeployAutopower,
    FleetConfig,
    FleetTrafficModel,
    HeatWave,
    NetworkSimulation,
    OsUpdate,
    PowerCycle,
    SetAdminState,
    StepObserver,
    UnplugModule,
    build_switch_like_network,
)
from repro.network import engine as engine_mod

#: One ``N540X-8Z16G-SYS-A`` gives the fleet a router with no PSU power
#: sensor (§6.2).
CONFIG = FleetConfig(
    model_counts=(("8201-32FH", 2), ("NCS-55A1-24H", 2),
                  ("ASR-920-24SZ-M", 4), ("N540-24Z8Q2C-M", 2),
                  ("N540X-8Z16G-SYS-A", 1)),
    n_regional_pops=2, core_core_links=1)
SEED = 3
KINDS = ("admin", "unplug", "external", "os", "cycle", "decommission",
         "commission", "ambient", "heat", "psu", "autopower")


def _build():
    network = build_switch_like_network(CONFIG,
                                        rng=np.random.default_rng(SEED))
    traffic = FleetTrafficModel(network, rng=np.random.default_rng(SEED + 1),
                                n_demands=20)
    sim = NetworkSimulation(network, traffic,
                            rng=np.random.default_rng(SEED + 2))
    return network, sim


_FLEET = _build()[0]
HOSTS = sorted(_FLEET.routers)
#: Empty cages an ``AddExternalInterface`` can fill.
SPARES: List[Tuple[str, int]] = [
    (host, port.index) for host in HOSTS
    for port in _FLEET.routers[host].ports
    if not port.plugged and compatible(port.port_type,
                                       transceiver("SFP-1G-LX").model)]


def _event(kind: str, at_s: float, pick: int):
    host = HOSTS[pick % len(HOSTS)]
    if kind == "admin":
        return SetAdminState(at_s=at_s, hostname=host, port_index=pick % 4,
                             up=bool(pick % 2))
    if kind == "unplug":
        return UnplugModule(at_s=at_s, hostname=host, port_index=pick % 4)
    if kind == "external":
        spare_host, index = SPARES[pick % len(SPARES)]
        return AddExternalInterface(at_s=at_s, hostname=spare_host,
                                    port_index=index, trx_name="SFP-1G-LX")
    if kind == "os":
        return OsUpdate(at_s=at_s, hostname=host)
    if kind == "cycle":
        return PowerCycle(at_s=at_s, hostname=host)
    if kind == "decommission":
        return Decommission(at_s=at_s, hostname=host)
    if kind == "commission":
        return Commission(at_s=at_s, hostname=host)
    if kind == "ambient":
        return AmbientChange(at_s=at_s, hostname=host,
                             ambient_c=22.0 + pick % 10)
    if kind == "heat":
        return HeatWave(at_s=at_s, ambient_c=25.0 + pick % 6)
    if kind == "psu":
        return DegradePsu(at_s=at_s, hostname=host, psu_index=0,
                          efficiency_delta=-0.02)
    return DeployAutopower(at_s=at_s, hostname=host)


@st.composite
def schedules(draw):
    step_s = draw(st.sampled_from([300.0, 900.0]))
    snmp_period_s = step_s * draw(st.sampled_from([0.5, 1.0, 2.5]))
    n_steps = draw(st.integers(1, 8))
    # Step boundaries from 0 to two steps past the end, some of them
    # shared, and times between boundaries.
    times = st.builds(lambda k, frac: (k + frac) * step_s,
                      st.integers(0, n_steps + 2),
                      st.sampled_from([0.0, 0.0, 0.5]))
    mix = draw(st.lists(st.tuples(st.sampled_from(KINDS), times,
                                  st.integers(0, 10 ** 6)),
                        max_size=8))
    # Always one Autopower deployment, so a view router joins mid-run.
    mix.append(("autopower", draw(times), draw(st.integers(0, 10 ** 6))))
    events, spares_used = [], set()
    for kind, at_s, pick in mix:
        if kind == "external":
            # One module per spare cage.
            if pick % len(SPARES) in spares_used:
                continue
            spares_used.add(pick % len(SPARES))
        events.append(_event(kind, at_s, pick))
    return {"step_s": step_s, "snmp_period_s": snmp_period_s,
            "n_steps": n_steps, "events": events,
            "observe": draw(st.booleans()), "ledger": draw(st.booleans())}


class _Recorder(StepObserver):
    """Keeps what the loop stamps on every snapshot."""

    def __init__(self):
        self.steps = []

    def view_hosts(self):
        return (HOSTS[0],)

    def on_step(self, snapshot):
        self.steps.append((snapshot.step, snapshot.t_s, snapshot.snmp_polled))


def _run(case, engine: str, incremental: bool = True):
    saved = engine_mod.INCREMENTAL_REFRESH
    engine_mod.INCREMENTAL_REFRESH = incremental
    try:
        network, sim = _build()
        recorder = sim.add_observer(_Recorder()) if case["observe"] else None
        result = sim.run(duration_s=case["n_steps"] * case["step_s"],
                         step_s=case["step_s"], events=list(case["events"]),
                         snmp_period_s=case["snmp_period_s"], engine=engine,
                         attribution=case["ledger"])
    finally:
        engine_mod.INCREMENTAL_REFRESH = saved
    return network, result, recorder


def _snmp_timestamps(result):
    return {host: trace.power.timestamps.tolist()
            for host, trace in result.snmp.items()}


def _router_state(network):
    """Each router's generator position and sensor and noise state."""
    return {host: (router.rng.bit_generator.state,
                   router._pseudo_constant_basis, router._sensor_bias_w,
                   router._noise_state)
            for host, router in network.routers.items()}


class TestGeneratedSchedules:
    @settings(max_examples=20, deadline=None)
    @given(case=schedules())
    def test_both_engines_step_the_same_cadence(self, case):
        n_obj, r_obj, rec_obj = _run(case, "object")
        n_vec, r_vec, rec_vec = _run(case, "vector")
        n_full, r_full, rec_full = _run(case, "vector", incremental=False)

        np.testing.assert_array_equal(r_obj.total_power.timestamps,
                                      r_vec.total_power.timestamps)
        assert _snmp_timestamps(r_obj) == _snmp_timestamps(r_vec)
        np.testing.assert_allclose(r_obj.total_power.values,
                                   r_vec.total_power.values, rtol=1e-9)
        assert _router_state(n_obj) == _router_state(n_vec)
        assert _router_state(n_vec) == _router_state(n_full)
        for host, trace in r_obj.snmp.items():
            p_obj, p_vec = trace.power.values, r_vec.snmp[host].power.values
            nan = np.isnan(p_obj)
            np.testing.assert_array_equal(nan, np.isnan(p_vec),
                                          err_msg=host)
            np.testing.assert_allclose(p_obj[~nan], p_vec[~nan], rtol=1e-9,
                                       err_msg=host)
        assert len(r_obj.sensor_exports) == len(r_vec.sensor_exports)
        for e_obj, e_vec in zip(r_obj.sensor_exports, r_vec.sensor_exports):
            np.testing.assert_allclose([e_obj.input_w, e_obj.output_w],
                                       [e_vec.input_w, e_vec.output_w],
                                       rtol=1e-9)
        if case["observe"]:
            assert rec_obj.steps == rec_vec.steps
            assert len(rec_obj.steps) == case["n_steps"]
        if case["ledger"]:
            assert r_obj.ledger.conserved()
            assert r_vec.ledger.conserved()

        np.testing.assert_array_equal(r_vec.total_power.values,
                                      r_full.total_power.values)
        np.testing.assert_array_equal(r_vec.total_traffic_bps.values,
                                      r_full.total_traffic_bps.values)
        assert _snmp_timestamps(r_vec) == _snmp_timestamps(r_full)
        for host, trace in r_vec.snmp.items():
            np.testing.assert_array_equal(
                trace.power.values, r_full.snmp[host].power.values,
                err_msg=host)
        if case["observe"]:
            assert rec_vec.steps == rec_full.steps
        if case["ledger"]:
            np.testing.assert_array_equal(r_vec.ledger.energy_j,
                                          r_full.ledger.energy_j)


class TestOneWallPowerReadPerStep:
    def test_object_engine_reads_each_router_once_per_step(self,
                                                           monkeypatch):
        """The SNMP poll reuses the step's wall power instead of asking
        every router again."""
        calls = []
        original = VirtualRouter.wall_power_w

        def counted(router, *args, **kwargs):
            calls.append(router.hostname)
            return original(router, *args, **kwargs)

        network, sim = _build()
        monkeypatch.setattr(VirtualRouter, "wall_power_w", counted)
        n_steps = 10
        result = sim.run(duration_s=n_steps * 300.0, step_s=300.0,
                         snmp_period_s=300.0, engine="object")
        assert len(result.snmp[HOSTS[0]].power.timestamps) == n_steps
        assert len(calls) == len(network.routers) * n_steps
