"""Benchmark harness for the fleet-simulation engines.

Times the original per-object simulation loop against the vectorized
columnar engine (:mod:`repro.network.engine`) on fleets of increasing
size, checks that the two engines agree on the total-power trace, and
writes a machine-readable report (``BENCH_simulation.json`` by default).

Run it through the CLI::

    netpower bench --quick          # small fleet only, seconds
    netpower bench                  # small + medium, ~2 minutes
    netpower bench --cases large    # 214 routers x 10k steps
    netpower bench --cases xl xxl   # synthetic 1k / 10k fleets

Each case builds *independent* fleets from the same seeds (one per
engine) so neither run perturbs the other's RNG streams or object state;
equal seeds guarantee the fleets are identical, and the report records
the maximum relative difference between the two total-power traces.
Cases above ``xl`` run the vector engine only -- the object loop is
O(ports) of Python per step and would take the better part of an hour
at 10k routers -- and each entry records why in ``object_skipped``.
"""

from __future__ import annotations

import json
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.network import (
    FleetConfig,
    FleetTrafficModel,
    NetworkSimulation,
    build_switch_like_network,
    generate_synth_network,
    synth_config,
)
from repro.obs import tracing

#: Simulation step used by every benchmark case (the SNMP poll period).
STEP_S = 300.0

#: Report schema identifier, bumped on layout changes.  v2 added the
#: per-phase timings (build / run per engine, cross-check) taken from
#: the observability spans.  v3 records the seed on every case entry and
#: merges subset runs into an existing report instead of discarding the
#: cases that were not re-run.  v4 adds the synthetic-topology cases:
#: per-case engine lists (``object``/``vector`` entries are ``null`` for
#: engines that did not run), columnar memory-footprint fields, the SNMP
#: poll period, and a per-1k-router ms/step normalization.  v5 adds the
#: per-case ``attribution`` block (a second vector run with the energy
#: ledger attached: ms/step, the delta against the plain vector run, the
#: overhead fraction, and the ledger's conservation residual) on cases
#: flagged for it; unflagged cases carry ``null``.  v6 adds a
#: ``profile`` block to every engine entry -- per-span call counts and
#: cumulative/self milliseconds from the profile-only tracer attached
#: around each timed run (``kernel.*`` and ``sim.*`` names) -- which the
#: regression sentinel (``--compare``, :func:`compare_reports`) diffs
#: against a baseline report.
SCHEMA = "repro.bench.simulation/v6"

#: Schema identifier on ``BENCH_history.jsonl`` trajectory lines.
HISTORY_SCHEMA = "repro.bench.history/v1"

#: Default regression tolerance: a metric more than this fraction above
#: its baseline fails the comparison (0.15 trips on a 20% slowdown with
#: margin for timer noise; CI passes a looser value on shared runners).
DEFAULT_TOLERANCE = 0.15

#: Kernels whose baseline cumulative time is below this floor are
#: skipped by the comparison -- sub-millisecond kernels are timer noise.
DEFAULT_MIN_KERNEL_MS = 5.0


@dataclass(frozen=True)
class BenchCase:
    """One fleet size / duration combination to time."""

    name: str
    n_steps: int
    #: Paper fleet to build (mutually exclusive with ``synth``).
    config: Optional[FleetConfig] = None
    #: Synthetic preset name (:data:`repro.network.SYNTH_PRESETS`).
    synth: Optional[str] = None
    #: Demands drawn by the traffic model (None = model default).
    n_demands: Optional[int] = None
    #: Engines timed for this case, in run order.
    engines: Tuple[str, ...] = ("object", "vector")
    #: Recorded in the report when the object engine is not run.
    object_skipped: Optional[str] = None
    #: SNMP poll period override (None = every 300 s step).
    snmp_period_s: Optional[float] = None
    #: Also time a vector run with the energy ledger attached and
    #: record the attribution overhead block.
    attribution: bool = False


def _scaled_counts(factor: int) -> tuple:
    return tuple((name, count * factor)
                 for name, count in FleetConfig.model_counts)


_OBJECT_SKIP_REASON = (
    "object engine is O(ports) Python per step; estimated well over "
    "30 min at this size -- xl is the last cross-checked rung")

#: The benchmark suite, smallest first.  ``small`` finishes in seconds
#: and is what ``--quick`` (and the smoke test) runs; ``large`` is the
#: 2x-fleet, 10k-step case the >=10x speedup target is measured on; the
#: synthetic rungs (``xl``/``xxl``/``xxxl``) exercise the generator from
#: :mod:`repro.network.synth` at 1k/10k/100k routers.  ``xxxl`` is
#: opt-in (never in :data:`DEFAULT_CASES`): pass ``--cases xxxl``.
CASES: Dict[str, BenchCase] = {
    "small": BenchCase(
        name="small",
        config=FleetConfig(
            model_counts=(
                ("8201-32FH", 2),
                ("NCS-55A1-24H", 2),
                ("NCS-55A1-24Q6H-SS", 2),
                ("ASR-920-24SZ-M", 4),
                ("N540-24Z8Q2C-M", 2),
            ),
            n_regional_pops=2,
            core_core_links=2,
        ),
        n_steps=300,
        n_demands=40,
    ),
    "medium": BenchCase(
        name="medium",
        config=FleetConfig(),
        n_steps=2000,
    ),
    "large": BenchCase(
        name="large",
        config=FleetConfig(
            model_counts=_scaled_counts(2),
            n_regional_pops=26,
            core_core_links=8,
        ),
        n_steps=10000,
        attribution=True,
    ),
    "xl": BenchCase(
        name="xl",
        synth="synth-1k",
        n_steps=600,
    ),
    "xxl": BenchCase(
        name="xxl",
        synth="synth-10k",
        n_steps=2000,
        engines=("vector",),
        object_skipped=_OBJECT_SKIP_REASON,
        snmp_period_s=3600.0,
        attribution=True,
    ),
    "xxxl": BenchCase(
        name="xxxl",
        synth="synth-100k",
        n_steps=50,
        n_demands=400,
        engines=("vector",),
        object_skipped=_OBJECT_SKIP_REASON,
        snmp_period_s=7200.0,
    ),
}

DEFAULT_CASES = ("small", "medium")


def _case_routers(case: BenchCase) -> int:
    """Router count a case will build, for the progress line."""
    if case.synth is not None:
        return synth_config(case.synth).n_routers
    config = case.config if case.config is not None else FleetConfig()
    return config.n_routers


def _build_simulation(case: BenchCase, seed: int) -> NetworkSimulation:
    """A fresh fleet + traffic + simulation from three derived seeds."""
    if case.synth is not None:
        network = generate_synth_network(
            synth_config(case.synth), rng=np.random.default_rng(seed))
    else:
        network = build_switch_like_network(
            case.config, rng=np.random.default_rng(seed))
    kwargs = {} if case.n_demands is None else {"n_demands": case.n_demands}
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(seed + 1), **kwargs)
    return NetworkSimulation(
        network, traffic, rng=np.random.default_rng(seed + 2))


def run_case(case: BenchCase, seed: int,
             steps_override: Optional[int] = None) -> Dict:
    """Time a case's engines and return its report entry.

    Timing comes from :mod:`repro.obs.tracing` spans -- one ``bench.case``
    root with ``bench.build`` / ``bench.run`` children per engine and a
    ``bench.crosscheck`` tail -- so a ``--trace-out`` run shows the same
    numbers the report records.  A private profile-only tracer is
    installed when none is active, keeping the span durations available
    either way.
    """
    if tracing.enabled():
        return _run_case_traced(case, seed, steps_override)
    with tracing.use_tracer(tracing.Tracer(timeline=False)):
        return _run_case_traced(case, seed, steps_override)


def _engine_entry(wall_s: float, n_steps: int, routers: int,
                  run_tracer: tracing.Tracer) -> Dict:
    """Timing dict for one engine run.

    ``ms_per_step`` is wall time over the step count, so one-time costs
    (fleet build happens outside this span, but columnar init and the
    final sensor export do not) amortize across the run the same way
    they do in production sweeps.  ``ms_per_step_per_1k_routers``
    normalizes by fleet size -- the number that must hold roughly flat
    (or shrink) up the ladder for scaling to be sublinear.  The
    ``profile`` block (calls, cumulative and self milliseconds per span
    name) comes from the run's tracer; the regression sentinel diffs it.
    """
    ms_per_step = units.s_to_ms(wall_s) / n_steps
    return {
        "wall_s": round(wall_s, 4),
        "ms_per_step": round(ms_per_step, 4),
        "ms_per_step_per_1k_routers": round(
            ms_per_step * units.KILO / routers, 4),
        "profile": {
            name: {
                "calls": stats["calls"],
                "cum_ms": round(units.s_to_ms(stats["cum_s"]), 3),
                "self_ms": round(units.s_to_ms(stats["self_s"]), 3),
            }
            for name, stats in run_tracer.profile_dict()["kernels"].items()
        },
    }


def _run_case_traced(case: BenchCase, seed: int,
                     steps_override: Optional[int] = None) -> Dict:
    n_steps = steps_override if steps_override else case.n_steps
    duration_s = n_steps * STEP_S
    snmp_period_s = float(case.snmp_period_s if case.snmp_period_s is not None
                          else units.SNMP_POLL_PERIOD_S)

    timings: Dict[str, Optional[Dict]] = {"object": None, "vector": None}
    phases: Dict = {}
    traces: Dict[str, np.ndarray] = {}
    fleet_shape: Dict[str, int] = {}
    memory: Optional[Dict] = None
    session = tracing.get_tracer()
    assert session is not None
    with tracing.span("bench.case", case=case.name, n_steps=n_steps,
                      seed=seed):
        for engine in case.engines:
            with tracing.span("bench.build", engine=engine) as build_span:
                sim = _build_simulation(case, seed)
            if not fleet_shape:
                fleet_shape = {
                    "routers": len(sim.network.routers),
                    "ports": sum(len(r.ports)
                                 for r in sim.network.routers.values()),
                    "links": len(sim.network.links),
                }
            # Each timed run gets a private profile-only tracer: its
            # totals land in the report entry, the run pays no timeline
            # cost, and the totals merge into the session tracer
            # afterwards.
            run_tracer = tracing.Tracer(timeline=False)
            with tracing.span("bench.run", engine=engine) as run_span:
                with tracing.use_tracer(run_tracer):
                    result = sim.run(duration_s=duration_s, step_s=STEP_S,
                                     snmp_period_s=snmp_period_s,
                                     engine=engine)
            session.merge(run_tracer)
            timings[engine] = _engine_entry(run_span.duration_s, n_steps,
                                            fleet_shape["routers"],
                                            run_tracer)
            phases[engine] = {
                "build_s": round(build_span.duration_s, 4),
                "run_s": round(run_span.duration_s, 4),
            }
            traces[engine] = result.total_power.values
            if engine == "vector" and sim.last_vector_engine is not None:
                footprint = sim.last_vector_engine.state.memory_footprint()
                # ru_maxrss is KiB on Linux; a process-lifetime high-water
                # mark, so it includes the object fleet and earlier cases.
                peak_rss = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024
                memory = {
                    "state_bytes": int(footprint["bytes_total"]),
                    "state_bytes_per_router": round(
                        footprint["bytes_per_router"], 1),
                    "peak_rss_bytes": int(peak_rss),
                }

        rel_err: Optional[float] = None
        if "object" in traces and "vector" in traces:
            with tracing.span("bench.crosscheck") as check_span:
                obj, vec = traces["object"], traces["vector"]
                rel_err = float(np.max(
                    np.abs(vec - obj) / np.maximum(np.abs(obj), 1e-12)))
            phases["crosscheck_s"] = round(check_span.duration_s, 6)

        attribution: Optional[Dict] = None
        if case.attribution and timings["vector"] is not None:
            # A second vector run with the energy ledger attached; the
            # delta against the plain run is the attribution overhead.
            with tracing.span("bench.build", engine="vector+ledger"):
                sim = _build_simulation(case, seed)
            # Private tracer here too, so the attribution delta
            # compares two runs carrying the same profiling overhead.
            attr_tracer = tracing.Tracer(timeline=False)
            with tracing.span("bench.run",
                              engine="vector+ledger") as attr_span:
                with tracing.use_tracer(attr_tracer):
                    attr_result = sim.run(duration_s=duration_s,
                                          step_s=STEP_S,
                                          snmp_period_s=snmp_period_s,
                                          engine="vector",
                                          attribution=True)
            session.merge(attr_tracer)
            ms_on = units.s_to_ms(attr_span.duration_s) / n_steps
            ms_off = timings["vector"]["ms_per_step"]
            ledger = attr_result.ledger
            assert ledger is not None
            attribution = {
                "ms_per_step": round(ms_on, 4),
                "ms_per_step_delta": round(ms_on - ms_off, 4),
                "overhead_fraction": (round(ms_on / ms_off - 1.0, 4)
                                      if ms_off > 0 else None),
                "max_residual_w": ledger.max_residual_w,
                "conserved": ledger.conserved(),
                "power_bitwise_identical": bool(np.array_equal(
                    attr_result.total_power.values, traces["vector"])),
            }
            phases["attribution_s"] = round(attr_span.duration_s, 4)
    obj_t, vec_t = timings["object"], timings["vector"]
    entry = {
        "name": case.name,
        **fleet_shape,
        "seed": seed,
        "n_steps": n_steps,
        "step_s": STEP_S,
        "snmp_period_s": snmp_period_s,
        "engines": list(case.engines),
        "object": obj_t,
        "vector": vec_t,
        "memory": memory,
        "phases": phases,
        "speedup": (round(obj_t["wall_s"] / vec_t["wall_s"], 2)
                    if obj_t and vec_t else None),
        "total_power_max_rel_err": rel_err,
        "attribution": attribution,
    }
    if case.object_skipped is not None:
        entry["object_skipped"] = case.object_skipped
    return entry


def previous_cases(output: Path) -> Dict[str, Dict]:
    """Case entries from an existing same-schema report at ``output``.

    Empty when the file is missing, unreadable, or from another schema
    version -- a subset run must never graft entries whose layout (or
    semantics) no longer matches onto a fresh report.  Shared with the
    sweep runner, which writes its per-job timing rows in this schema.
    """
    if not output.exists():
        return {}
    try:
        previous = json.loads(output.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}
    if not isinstance(previous, dict) or previous.get("schema") != SCHEMA:
        return {}
    cases = previous.get("cases")
    if not isinstance(cases, list):
        return {}
    return {c["name"]: c for c in cases
            if isinstance(c, dict) and isinstance(c.get("name"), str)}


def _compare_metric(regressions: List[Dict], improvements: List[Dict],
                    case: str, engine: str, metric: str,
                    base_value: Optional[float],
                    cur_value: Optional[float],
                    tolerance: float) -> int:
    """Classify one metric pair; returns 1 if it was comparable."""
    if not base_value or cur_value is None:
        return 0
    ratio = cur_value / base_value
    entry = {
        "case": case, "engine": engine, "metric": metric,
        "baseline": base_value, "current": cur_value,
        "ratio": round(ratio, 4),
    }
    if ratio > 1.0 + tolerance:
        regressions.append(entry)
    elif ratio < 1.0 / (1.0 + tolerance):
        improvements.append(entry)
    return 1


def compare_reports(current: Dict, baseline: Dict,
                    tolerance: float = DEFAULT_TOLERANCE,
                    min_kernel_ms: float = DEFAULT_MIN_KERNEL_MS) -> Dict:
    """Diff a bench report against a baseline report.

    Compares ``ms_per_step`` and ``ms_per_step_per_1k_routers`` per
    case and engine, plus per-kernel cumulative milliseconds from the
    v6 ``profile`` blocks (kernels whose baseline total is under
    ``min_kernel_ms`` are skipped as timer noise).  A metric more than
    ``tolerance`` (fractional) above its baseline is a regression; more
    than the inverse below, an improvement.  Cases or kernels present
    on only one side are ignored -- the sentinel guards what both runs
    measured.

    Raises :class:`ValueError` when either report is from a different
    schema version; a layout change invalidates the comparison.
    """
    for label, report in (("current", current), ("baseline", baseline)):
        if report.get("schema") != SCHEMA:
            raise ValueError(
                f"{label} report schema {report.get('schema')!r} != "
                f"{SCHEMA!r}; regenerate the baseline")
    base_cases = {c["name"]: c for c in baseline.get("cases", [])}
    regressions: List[Dict] = []
    improvements: List[Dict] = []
    checked = 0
    for entry in current.get("cases", []):
        base = base_cases.get(entry["name"])
        if base is None:
            continue
        for engine in ("object", "vector"):
            cur_t, base_t = entry.get(engine), base.get(engine)
            if not cur_t or not base_t:
                continue
            for metric in ("ms_per_step", "ms_per_step_per_1k_routers"):
                checked += _compare_metric(
                    regressions, improvements, entry["name"], engine,
                    metric, base_t.get(metric), cur_t.get(metric),
                    tolerance)
            cur_prof = cur_t.get("profile") or {}
            base_prof = base_t.get("profile") or {}
            for kernel in sorted(set(cur_prof) & set(base_prof)):
                base_ms = base_prof[kernel].get("cum_ms")
                if base_ms is None or base_ms < min_kernel_ms:
                    continue
                checked += _compare_metric(
                    regressions, improvements, entry["name"], engine,
                    f"kernel:{kernel}", base_ms,
                    cur_prof[kernel].get("cum_ms"), tolerance)
    return {
        "tolerance": tolerance,
        "min_kernel_ms": min_kernel_ms,
        "checked": checked,
        "regressions": regressions,
        "improvements": improvements,
    }


def render_comparison(comparison: Dict, stream: object) -> None:
    """Print a comparison result as human-readable lines."""
    for kind in ("regressions", "improvements"):
        for item in comparison[kind]:
            arrow = "REGRESSION" if kind == "regressions" else "improved"
            print(f"{arrow}: [{item['case']}] {item['engine']} "
                  f"{item['metric']}: {item['baseline']} -> "
                  f"{item['current']} ({item['ratio']:.2f}x)",
                  file=stream)
    print(f"compared {comparison['checked']} metrics at "
          f"+/-{comparison['tolerance']:.0%} tolerance: "
          f"{len(comparison['regressions'])} regressions, "
          f"{len(comparison['improvements'])} improvements",
          file=stream)


def _history_entry(report: Dict) -> Dict:
    """One compact trajectory line for ``BENCH_history.jsonl``.

    Per case and engine: the two normalized step timings plus per-kernel
    cumulative milliseconds.  No wall-clock date -- the file is
    append-only, so line order *is* the trajectory, and the surrounding
    commit supplies the calendar.
    """
    cases: Dict[str, Dict] = {}
    for entry in report.get("cases", []):
        engines: Dict[str, Dict] = {}
        for engine in ("object", "vector"):
            timing = entry.get(engine)
            if not timing:
                continue
            engines[engine] = {
                "ms_per_step": timing.get("ms_per_step"),
                "ms_per_step_per_1k_routers": timing.get(
                    "ms_per_step_per_1k_routers"),
                "kernel_cum_ms": {
                    name: stats.get("cum_ms")
                    for name, stats in (timing.get("profile")
                                        or {}).items()},
            }
        cases[entry["name"]] = engines
    return {"schema": HISTORY_SCHEMA, "seed": report.get("seed"),
            "cases": cases}


def append_history(history_path: Path, report: Dict) -> Path:
    """Append the report's trajectory line to ``history_path``."""
    line = json.dumps(_history_entry(report), sort_keys=True)
    with history_path.open("a") as fh:
        fh.write(line + "\n")
    return history_path


def _summary_line(entry: Dict) -> str:
    """One human line per finished case, engines present or not."""
    parts = []
    for engine in ("object", "vector"):
        timing = entry.get(engine)
        if timing:
            parts.append(f"{engine} {timing['wall_s']:.2f}s "
                         f"({timing['ms_per_step']:.2f} ms/step)")
    line = ", ".join(parts)
    if entry.get("speedup") is not None:
        line += f" -> {entry['speedup']:.1f}x"
    if entry.get("total_power_max_rel_err") is not None:
        line += f" (max rel err {entry['total_power_max_rel_err']:.2e})"
    memory = entry.get("memory")
    if memory:
        line += (f", columnar state "
                 f"{memory['state_bytes'] / units.MEGA:.1f} MB")
    attribution = entry.get("attribution")
    if attribution:
        line += (f", ledger +{attribution['ms_per_step_delta']:.2f} ms/step "
                 f"({attribution['overhead_fraction']:+.1%})")
    return line


def run_benchmarks(case_names: Sequence[str], seed: int,
                   output: Path,
                   steps_override: Optional[int] = None,
                   stream: Optional[object] = None,
                   history: Optional[Path] = None) -> Dict:
    """Run the named cases, print a summary line each, write the report.

    A subset run (``--quick``, ``--cases small``) merges into an existing
    report at ``output``: re-run cases replace their previous entries,
    the rest are kept, and the result stays in suite order -- so timing
    one case never silently discards the ``large`` numbers from the last
    full run.  With ``history``, a compact trajectory line is appended
    there as well (``BENCH_history.jsonl`` by convention).
    """
    stream = stream if stream is not None else sys.stdout
    merged = previous_cases(output)
    kept = [name for name in merged if name not in case_names]
    entries: List[Dict] = []
    for name in case_names:
        case = CASES[name]
        print(f"[{name}] {_case_routers(case)} routers, "
              f"{steps_override or case.n_steps} steps, "
              f"engines {'+'.join(case.engines)} ...",
              file=stream, flush=True)
        entry = run_case(case, seed, steps_override=steps_override)
        entries.append(entry)
        merged[name] = entry
        print(f"[{name}] {_summary_line(entry)}", file=stream, flush=True)
    order = {name: i for i, name in enumerate(CASES)}
    report = {
        "schema": SCHEMA,
        "generated_by": "netpower bench",
        "seed": seed,
        "step_s": STEP_S,
        "cases": sorted(merged.values(),
                        key=lambda c: (order.get(c["name"], len(order)),
                                       c["name"])),
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    if history is not None:
        append_history(history, report)
        print(f"trajectory appended to {history}", file=stream)
    if kept:
        print(f"kept previous entries for: {', '.join(sorted(kept))}",
              file=stream)
    print(f"report written to {output}", file=stream)
    return report
