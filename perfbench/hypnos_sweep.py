"""``hypnos-sweep``: §8 link sleeping on the paper's own 107-router fleet.

``run_sweep`` -- what ``netpower sweep`` calls -- runs inline
(``workers=1``) with a report path and attribution on, over ``full`` x
``quiet`` x {``none``, ``hypnos-50``, ``hypnos-aggressive``} x
``balanced`` with the ``sleep-policy`` preset's duration and step.  The
Hypnos planner and its reroutes dominate; step kernels are a few percent.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench import speed, tracer
from perfbench.common import median, metric, peak_rss_mb, run_dir, say, sha256

SLEEPS = ("none", "hypnos-50", "hypnos-aggressive")
#: Fixed work per ``--seconds``: one sweep takes ~13 s at the seed
#: commit on a 2-core box.
SECONDS_PER_SWEEP = 15


def matrix():
    """The workload's scenario matrix."""
    from repro.sweep import MATRIX_PRESETS, ScenarioMatrix

    preset = MATRIX_PRESETS["sleep-policy"]
    return ScenarioMatrix(topologies=("full",), traffics=("quiet",),
                          sleeps=SLEEPS, psus=("balanced",),
                          duration_s=preset.duration_s, step_s=preset.step_s)


def _capture_plans(plans: List[Tuple[object, object]]) -> None:
    """Keep every ``(planner, plan)`` pair ``Hypnos.plan`` returns."""
    from repro.sleep import hypnos

    original = hypnos.Hypnos.plan

    def plan(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        plans.append((self, result))
        return result
    hypnos.Hypnos.plan = plan


def _sweep(seed: int, index: int) -> Dict:
    from repro.sweep import runner

    report = run_dir() / f"sweep-{seed}-{index}.json"
    bench = runner.default_bench_output(report)
    for stale in (report, bench):
        stale.unlink(missing_ok=True)
    document, bursts, started, ended = speed.metered(
        runner.run_sweep, matrix(), root_seed=seed, workers=1,
        output=report, attribution=True)
    return {"wall_s": ended - started, "bursts": bursts,
            "reference_s": bursts.seconds(started, ended),
            "jobs": len(document["jobs"]), "report": report.read_bytes()}


def _check_window(planner, sleeping: frozenset, level: float) -> str:
    """Why one window's sleeping set is unsafe, or ``""``.

    The cap bounds utilisation after rerouting around sleeping links.  A
    window that sleeps nothing reroutes nothing, and at peak demand the
    unmodified fleet may already run a link above the cap, which is the
    traffic's doing, not the plan's; such a window passes.
    """
    import networkx as nx

    from repro import units

    if not sleeping:
        return ""
    network = planner.network
    config = planner.config
    multigraph = network.internal_graph(exclude=sleeping)
    graph = nx.Graph(multigraph)
    if not nx.is_connected(graph):
        return "internal graph disconnected"
    if config.require_redundancy:
        for a, b in nx.bridges(graph):
            if multigraph.number_of_edges(a, b) < 2:
                return f"bridge {a}-{b} without a parallel link"
    try:
        rerouted = planner.matrix.reroute_without(set(sleeping))
    except ValueError as exc:
        return f"reroute failed: {exc}"
    speeds = {link.link_id: link.speed_gbps
              for link in network.internal_links()}
    for link_id, load in rerouted.base_link_loads().items():
        utilisation = load * level / units.gbps_to_bps(speeds[link_id])
        if utilisation > config.max_utilisation:
            return (f"link {link_id} at {utilisation:.3f} over the "
                    f"{config.max_utilisation} cap")
    return ""


def _checks(plans, sweeps: List[Dict]) -> Tuple[int, int, List[str]]:
    attempted, failed, notes = 0, 0, []
    for sweep in sweeps:
        attempted += len(SLEEPS)
        failed += len(SLEEPS) - sweep["jobs"]
    if any(s["report"] != sweeps[0]["report"] for s in sweeps):
        failed += 1
        notes.append("sweep reports differ between repeats")
    expected = (len(SLEEPS) - 1) * len(sweeps)
    if len(plans) != expected:
        failed += 1
        notes.append(f"captured {len(plans)} plans, expected {expected}")
    for planner, plan in plans:
        verdicts: Dict[Tuple[frozenset, float], str] = {}
        for window in plan.windows:
            key = (frozenset(window.sleeping), window.demand_multiplier)
            if key not in verdicts:
                verdicts[key] = _check_window(planner, *key)
            attempted += 1
            if verdicts[key]:
                failed += 1
                notes.append(f"window at {window.t_start_s:g} s: "
                             f"{verdicts[key]}")
    return attempted, failed, notes


def run(seed: int, seconds: int, trace: bool) -> Dict:
    """One run of the workload; see :mod:`perfbench.run`."""
    plans: List[Tuple[object, object]] = []
    _capture_plans(plans)
    if trace:
        plain = _sweep(seed, 0)
        recorder = tracer.Recorder()
        tracer.install(recorder)
        sweeps = [_sweep(seed, 1)]
        spans_end = len(recorder.spans)
        recorder.dump(run_dir() / f"spans-hypnos-sweep-{seed}.json")
    else:
        n_sweeps = max(1, seconds // SECONDS_PER_SWEEP)
        sweeps = [_sweep(seed, i) for i in range(n_sweeps)]
    rss = peak_rss_mb()
    walls = [s["reference_s"] for s in sweeps]
    jobs = sum(s["jobs"] for s in sweeps)
    ops = jobs / sum(walls)
    attempted, failed, notes = _checks(
        plans, [plain] + sweeps if trace else sweeps)
    for note in notes[:20]:
        say(f"check failed: {note}")
    say(f"hypnos-sweep: {jobs} jobs in {sum(s['wall_s'] for s in sweeps):.3f}"
        f" s wall, {sum(walls):.3f} reference s ({len(sweeps)} sweep(s))")
    for sweep in sweeps:
        say(speed.host_speed(sweep["bursts"]))
    say(f"jobs_per_min = {60.0 * ops:.3f} 1/min")
    out = {"attempted": attempted, "failed": failed,
           "digest": sha256([sweeps[0]["report"]]),
           "end_to_end": {"ops_per_s": metric(ops, "1/s"),
                          "p50_ms": metric(1e3 * median(walls), "ms"),
                          "peak_rss_mb": metric(rss, "MB")}}
    if trace:
        out["trace"] = {"spans": recorder.spans[:spans_end],
                        "counts": recorder.counts,
                        "maxima": recorder.maxima,
                        "missing": recorder.missing,
                        "overhead": sweeps[0]["reference_s"]
                        / plain["reference_s"] - 1.0}
    return out
