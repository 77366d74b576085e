"""``fleet-steps``: the vector engine stepping synth-1k with every hook on.

One ``NetworkSimulation.run(engine="vector", attribution=True)`` over a
seeded event schedule, with SNMP polled every 300 s step, an
``AggregatingObserver`` and a few Autopower-metered routers attached.
The schedule toggles one internal link down and up every hour (the
incremental patch path), degrades a few PSUs, and provisions one
external interface on the first day (the one full rebuild).  Hypnos
never runs here and none of the serve layers do.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from perfbench import speed, tracer
from perfbench.common import median, metric, peak_rss_mb, run_dir, say, sha256

PRESET = "synth-1k"
STEP_S = 300.0
#: Fixed work per ``--seconds``: ~5 ms a step at the seed commit on a
#: 2-core box, so a 20 s run simulates ten days.
STEPS_PER_SECOND = 144
#: Steps per timing chunk: one simulated hour, each with the same two
#: link-toggle boundaries.
HOUR_STEPS = 12
AUTOPOWER_ROUTERS = 3
PSU_DEGRADATIONS = 3
#: Steps re-run on the object engine, covering the first link toggle
#: (at 00:15, step 3).
PREFIX_STEPS = 6
#: Steps re-run under a metrics registry to count column rebuilds; the
#: one ``AddExternalInterface`` (at 13:10) falls inside them.
CHECK_STEPS = 168
TOLERANCE = 1e-9


class StepClock:
    """Step observer stamping the wall clock after every step."""

    def __init__(self) -> None:
        self.stamps: List[float] = []

    def view_hosts(self) -> Tuple[str, ...]:
        return ()

    def on_run_start(self, sim, engine, collector, step_s, n_steps) -> None:
        self.stamps.append(time.perf_counter())
        tracer.CONTEXT.set("step:0")

    def on_step(self, snapshot) -> None:
        self.stamps.append(time.perf_counter())
        tracer.CONTEXT.set(f"step:{snapshot.step + 1}")

    def on_run_end(self, result) -> None:
        pass


def _schedule(network, rng: np.random.Generator, n_steps: int) -> List:
    """The seeded event schedule over ``n_steps`` steps."""
    from repro import units
    from repro.hardware.transceiver import compatible, transceiver
    from repro.network import AddExternalInterface, DegradePsu, SetAdminState

    hour = units.SECONDS_PER_HOUR
    internal = sorted(network.internal_links(), key=lambda l: l.link_id)
    hosts = sorted(network.routers)
    events: List = []
    for h in range(int(n_steps * STEP_S // hour)):
        link = internal[int(rng.integers(len(internal)))]
        for at_s, up in ((h * hour + 900.0, False), (h * hour + 2700.0, True)):
            for end in (link.a, link.b):
                events.append(SetAdminState(
                    at_s=at_s, hostname=end.hostname,
                    port_index=end.port_index, up=up))
    for k in range(PSU_DEGRADATIONS):
        host = hosts[int(rng.integers(len(hosts)))]
        events.append(DegradePsu(at_s=(5 + 24 * k) * hour, hostname=host,
                                 psu_index=0, efficiency_delta=-0.05))
    module = transceiver("SFP-1G-LX").model
    spares = [(host, port.index) for host in hosts
              for port in network.routers[host].ports
              if not port.plugged and compatible(port.port_type, module)]
    host, index = spares[int(rng.integers(len(spares)))]
    events.append(AddExternalInterface(at_s=13 * hour + 600.0, hostname=host,
                                       port_index=index,
                                       trx_name="SFP-1G-LX"))
    return events


def build(seed: int, n_steps: int):
    """Fleet, traffic, simulation and schedule for ``seed``."""
    import repro.network as rn
    from repro.monitor.aggregate import AggregatingObserver
    from repro.sweep.matrix import TRAFFIC_PRESETS

    network = rn.generate_synth_network(
        rn.synth_config(PRESET), rng=np.random.default_rng(seed))
    traffic = rn.FleetTrafficModel(
        network, rng=np.random.default_rng(seed + 1),
        **TRAFFIC_PRESETS["quiet"])
    sim = rn.NetworkSimulation(network, traffic,
                               rng=np.random.default_rng(seed + 2))
    rng = np.random.default_rng(seed + 3)
    hosts = sorted(network.routers)
    for i in sorted(rng.choice(len(hosts), AUTOPOWER_ROUTERS, replace=False)):
        sim.deploy_autopower(hosts[int(i)])
    sim.add_observer(AggregatingObserver())
    return sim, _schedule(network, rng, n_steps)


def _run(sim, events, n_steps: int, engine: str):
    """Counters are recorded for the metered routers only, as in a
    deployment that details what it meters; every router's power is
    polled either way."""
    return sim.run(duration_s=n_steps * STEP_S, step_s=STEP_S,
                   events=events, engine=engine, attribution=True,
                   detailed_hosts=sorted(sim.autopower_clients))


def _timed_run(seed: int, n_steps: int) -> Dict:
    """One metered run; each simulated hour's wall time is converted
    into reference seconds (see :mod:`perfbench.speed`)."""
    sim, events = build(seed, n_steps)
    clock = sim.add_observer(StepClock())
    result, bursts, started, ended = speed.metered(
        _run, sim, events, n_steps, "vector")
    routers = len(sim.network.routers)
    bounds = clock.stamps[::HOUR_STEPS]
    hours = [bursts.seconds(a, b) for a, b in zip(bounds, bounds[1:])]
    return {"result": result, "wall_s": ended - started, "routers": routers,
            "bursts": bursts,
            "router_steps_per_s": routers * HOUR_STEPS * len(hours)
            / sum(hours),
            "p50_step_ms": 1e3 * median(hours) / HOUR_STEPS}


def _checks(seed: int, n_steps: int, result) -> Tuple[int, int, List[str]]:
    """Output checks; returns ``(attempted, failed, messages)``."""
    from repro.obs import metrics

    power = result.total_power.values
    attempted, failed, notes = 0, 0, []

    attempted += n_steps
    residual = result.ledger.max_residual_w
    if len(power) != n_steps or not residual <= TOLERANCE:
        failed += n_steps
        notes.append(f"ledger residual {residual:.3e} W over {TOLERANCE} W")

    sim, events = build(seed, n_steps)
    prefix = _run(sim, events, PREFIX_STEPS, "object")
    reference = prefix.total_power.values
    rel = np.abs(reference - power[:PREFIX_STEPS]) / np.abs(reference)
    attempted += PREFIX_STEPS
    if not (rel <= TOLERANCE).all():
        failed += int((~(rel <= TOLERANCE)).sum())
        notes.append(f"object engine prefix differs by {rel.max():.3e}")

    sim, events = build(seed, n_steps)
    with metrics.use_registry(metrics.MetricsRegistry()) as registry:
        again = _run(sim, events, CHECK_STEPS, "vector")
    attempted += CHECK_STEPS
    mismatched = int(
        (again.total_power.values != power[:CHECK_STEPS]).sum())
    if mismatched:
        failed += mismatched
        notes.append(f"{mismatched} steps differ with metrics on")
    refresh = registry.get("netpower_sim_engine_refresh_total")
    rebuilds = refresh.default().value if refresh is not None else 0
    attempted += 1
    if rebuilds != 2:  # construction + the AddExternalInterface boundary
        failed += 1
        notes.append(f"{rebuilds:g} full column rebuilds, expected 2")
    return attempted, failed, notes


def run(seed: int, seconds: int, trace: bool) -> Dict:
    """One run of the workload; see :mod:`perfbench.run`."""
    # The traced run times an untraced and a traced half of the work.
    n_steps = max(CHECK_STEPS, STEPS_PER_SECOND * seconds // (1 + trace))
    if trace:
        plain = _timed_run(seed, n_steps)
        recorder = tracer.Recorder()
        tracer.install(recorder)
        timed = _timed_run(seed, n_steps)
        spans_end = len(recorder.spans)
        recorder.dump(run_dir() / f"spans-fleet-steps-{seed}.json")
    else:
        timed = _timed_run(seed, n_steps)
    rss = peak_rss_mb()
    result = timed["result"]
    ops = timed["router_steps_per_s"]
    attempted, failed, notes = _checks(seed, n_steps, result)
    for note in notes:
        say(f"check failed: {note}")
    say(f"fleet-steps: {timed['routers']} routers x {n_steps} steps in "
        f"{timed['wall_s']:.3f} s")
    say(speed.host_speed(timed["bursts"]))
    say(f"router_steps_per_s = {ops:.1f} 1/s (reference seconds)")
    say(f"p50 step = {timed['p50_step_ms']:.4f} ms (median simulated hour "
        f"in reference seconds, per step)")
    out = {"attempted": attempted, "failed": failed,
           "digest": sha256([result.total_power.values.tobytes()]),
           "end_to_end": {"ops_per_s": metric(ops, "1/s"),
                          "p50_ms": metric(timed["p50_step_ms"], "ms"),
                          "peak_rss_mb": metric(rss, "MB")}}
    if trace:
        out["trace"] = {"spans": recorder.spans[:spans_end],
                        "counts": recorder.counts,
                        "maxima": recorder.maxima,
                        "missing": recorder.missing,
                        "overhead":
                            plain["router_steps_per_s"] / ops - 1.0}
    return out
