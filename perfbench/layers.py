"""Per-layer metrics of a traced run, named after the modules they time.

Busy time is the summed duration of a layer's spans, self time that
minus the spans it called, and the unattributed remainder the self time
of the outermost spans (``NetworkSimulation.run``, ``run_sweep`` and
``run_job``, the server's request handling).  A layer a workload never
calls reads 0; a layer whose wrapper target no longer exists is listed
as missing and reads 0 as well.  On the serve workloads only spans
inside the measured phases count, except the build layers, which run
while the server loads.
"""

from __future__ import annotations

from typing import Dict, List

from perfbench.common import say
from perfbench.tracer import layer_table

#: Layers whose time is spent before the serve phases start.
_BUILD = ("network.synth.build", "network.topology.build",
          "network.traffic.model", "serve.state.load",
          "network.engine.state_build")


def per_layer(trace: Dict) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one trace."""
    spans: List[list] = trace["spans"]
    window = trace.get("window")
    table = layer_table(spans)
    if window is not None:
        served = [s for s in spans if window[0] <= s[2] <= window[1]]
        table = {name: row for name, row in table.items() if name in _BUILD}
        table.update({name: row for name, row in layer_table(served).items()
                      if name not in _BUILD})
    counts = trace["counts"]
    maxima = trace["maxima"]

    def busy(name: str) -> float:
        return table.get(name, {}).get("busy_s", 0.0)

    def calls(name: str) -> float:
        return float(table.get(name, {}).get("calls", 0))

    def own(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    tried = counts.get("sleep.hypnos.tried", 0.0)
    values = {
        "network.synth.build_s": busy("network.synth.build"),
        "network.topology.build_s": busy("network.topology.build"),
        "network.traffic.model_s": busy("network.traffic.model"),
        "serve.state.load_s": busy("serve.state.load"),
        "sleep.hypnos.plan_s": busy("sleep.hypnos.plan"),
        "sleep.hypnos.windows_planned": calls("sleep.hypnos.plan_window"),
        "sleep.hypnos.accept_ratio":
            counts.get("sleep.hypnos.slept", 0.0) / tried if tried else 0.0,
        "network.traffic.reroute_s": busy("network.traffic.reroute"),
        "network.traffic.reroute_calls": calls("network.traffic.reroute"),
        "sleep.savings.estimate_s": busy("sleep.savings.estimate"),
        "network.engine.state_build_s": busy("network.engine.state_build"),
        "network.engine.apply_traffic_s":
            busy("network.engine.apply_traffic"),
        "network.engine.advance_counters_s":
            busy("network.engine.advance_counters"),
        "network.engine.advance_noise_s":
            busy("network.engine.advance_noise"),
        "network.engine.wall_power_s": busy("network.engine.wall_power"),
        "network.engine.patch_routers_s":
            busy("network.engine.patch_routers"),
        "network.engine.patch_routers_calls":
            calls("network.engine.patch_routers"),
        "network.engine.patched_routers":
            counts.get("network.engine.patched_routers", 0.0),
        "network.engine.refresh_calls": calls("network.engine.refresh"),
        "telemetry.snmp.poll_s": busy("telemetry.snmp.poll"),
        "telemetry.snmp.polls": calls("telemetry.snmp.poll"),
        "telemetry.autopower.tick_s": busy("telemetry.autopower.tick"),
        "obs.ledger.record_s": busy("obs.ledger.record"),
        "obs.ledger.max_residual_w":
            maxima.get("obs.ledger.max_residual_w", 0.0),
        "monitor.aggregate.on_step_s": busy("monitor.aggregate.on_step"),
        "network.simulation.run_s": busy("network.simulation.run"),
        "network.simulation.unattributed_s": own("network.simulation.run"),
        "sweep.runner.job_s": busy("sweep.runner.job"),
        "sweep.runner.report_write_s": busy("sweep.runner.report_write"),
        "sweep.runner.unattributed_s":
            own("sweep.runner.run") + own("sweep.runner.job"),
        "serve.schemas.parse_s": busy("serve.schemas.parse"),
        "serve.schemas.encode_s": busy("serve.schemas.encode"),
        "serve.cache.lookup_s": busy("serve.cache.lookup"),
        "serve.cache.insert_s": busy("serve.cache.insert"),
        "serve.cache.entries": counts.get("serve.cache.entries", 0.0),
        "serve.batching.evaluate_s": busy("serve.batching.evaluate"),
        "core.prediction.predict_trace_calls":
            calls("core.prediction.predict_trace"),
        "core.prediction.predict_trace_s":
            busy("core.prediction.predict_trace"),
        "serve.state.whatif_s": busy("serve.state.whatif"),
        "serve.state.whatif_calls": calls("serve.state.whatif"),
        "trace.overhead": trace["overhead"],
    }
    values.update(_serve(trace))
    _print(table, values, trace)
    return values


def _serve(trace: Dict) -> Dict[str, float]:
    """The serve layers read from ``/metrics`` and the load generator."""
    server = trace.get("server", {})
    phases = [p for p in trace.get("loadgen", []) if p.name != "whatif"]
    requests = [r for r in trace.get("requests", [])
                if r.ok and r.path == "/predict"]
    cached = server.get('netpower_serve_predict_tier_total{tier="cached"}',
                        0.0)
    full = server.get('netpower_serve_predict_tier_total{tier="full"}', 0.0)
    flushes = server.get("netpower_serve_batch_size_count", 0.0)
    width = server.get("netpower_serve_batch_size_sum", 0.0)
    handled = server.get(
        'netpower_serve_request_seconds_count{endpoint="/predict"}', 0.0)
    server_ms = 1e3 * server.get(
        'netpower_serve_request_seconds_sum{endpoint="/predict"}', 0.0) \
        / handled if handled else 0.0
    client_ms = 1e3 * sum(r.done - r.sent for r in requests) \
        / len(requests) if requests else 0.0
    spans = trace["spans"]
    window = trace.get("window") or (0.0, 0.0)
    own_work = sum(
        s[3] - s[2] for s in spans
        if window[0] <= s[2] <= window[1] and (
            s[1] == "serve.batching.evaluate"
            or (" /predict" in s[5] and s[1] in (
                "serve.schemas.parse", "serve.schemas.encode",
                "serve.cache.lookup", "serve.cache.insert"))))
    return {
        "serve.cache.hit_share": cached / (cached + full)
        if cached + full else 0.0,
        "serve.batching.flushes": flushes,
        "serve.batching.mean_width": width / flushes if flushes else 0.0,
        "serve.app.server_ms": server_ms,
        "serve.app.wire_ms": client_ms - server_ms if handled else 0.0,
        "serve.app.unattributed_ms":
            server_ms - 1e3 * own_work / handled if handled else 0.0,
        "loadgen.late_ms.p99": max((p.late_p99_ms for p in phases),
                                   default=0.0),
        "loadgen.sent": float(sum(p.sent for p in phases)),
        "loadgen.failed": float(sum(p.failed for p in phases)),
    }


def _print(table: Dict[str, Dict[str, float]], values: Dict[str, float],
           trace: Dict) -> None:
    say("layer                                calls      busy_s      self_s")
    for name in sorted(table):
        row = table[name]
        say(f"{name:34s} {row['calls']:8d} {row['busy_s']:11.4f} "
            f"{row['self_s']:11.4f}")
    for name in trace["missing"]:
        say(f"{name:34s}  missing: wrapper target not found")
    for key in ("network.simulation.unattributed_s",
                "sweep.runner.unattributed_s", "serve.app.unattributed_ms"):
        say(f"unattributed {key} = {values[key]:.4f}")
    say(f"trace.overhead = {values['trace.overhead']:+.4f} "
        f"(traced vs untraced throughput)")
