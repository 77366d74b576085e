"""The tracer's profile view: stats, exports, and the zero-cost-off contract.

The headline contract: spans only *time* code.  Turning either view on
must never change a byte of any seeded output -- the determinism tests
here run the same seeded sweep with the profile and the timeline on and
off and require identical report bytes.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.obs import export, metrics, tracing
from repro.obs.tracing import Tracer
from repro.sweep import ScenarioMatrix, run_sweep

#: Two fast jobs; enough to exercise every instrumented hot path.
FAST = ScenarioMatrix(
    topologies=("tiny",), traffics=("quiet", "busy"), sleeps=("none",),
    psus=("balanced",), duration_s=2 * 3600.0, step_s=900.0)


def _profiler() -> Tracer:
    """A profile-only tracer, as ``--profile-out`` alone installs."""
    return Tracer(timeline=False)


def _span_counts(trace_doc) -> Counter:
    """Spans per name in a trace document, subtraces included."""
    counts: Counter = Counter()

    def walk(span_doc):
        counts[span_doc["name"]] += 1
        for child in span_doc.get("children", ()):
            walk(child)

    for doc in [trace_doc] + list(trace_doc.get("subtraces", ())):
        for span_doc in doc["spans"]:
            walk(span_doc)
    return counts


class TestProfilerStats:
    def test_nested_regions_split_self_and_cumulative(self):
        prof = _profiler()
        with prof.span("outer"):
            with prof.span("inner"):
                pass
            with prof.span("inner"):
                pass
        doc = prof.profile_dict()
        assert doc["schema"] == tracing.PROFILE_SCHEMA
        outer, inner = doc["kernels"]["outer"], doc["kernels"]["inner"]
        assert outer["calls"] == 1 and inner["calls"] == 2
        # Outer's cumulative time covers the children; its self time
        # excludes them.
        assert outer["cum_s"] >= inner["cum_s"]
        assert outer["self_s"] <= outer["cum_s"] - inner["cum_s"] + 1e-9
        assert inner["self_s"] >= 0

    def test_reentrant_kernel_accumulates(self):
        prof = _profiler()
        for _ in range(5):
            with prof.span("k"):
                pass
        stat = prof.profile_dict()["kernels"]["k"]
        assert stat["calls"] == 5
        assert sum(stat["bucket_counts"]) == 5
        assert len(stat["bucket_counts"]) == len(tracing.CALL_BUCKETS) + 1

    def test_paths_record_unique_stacks(self):
        prof = _profiler()
        with prof.span("a"):
            with prof.span("b"):
                pass
        with prof.span("b"):
            pass
        stacks = [p["stack"] for p in prof.profile_dict()["paths"]]
        assert stacks == [["a"], ["a", "b"], ["b"]]

    def test_kernel_cap_routes_to_overflow_bucket(self):
        prof = _profiler()
        for i in range(tracing.MAX_KERNELS + 10):
            # netpower: ignore[NP-OBS-001] -- deliberately dynamic: this
            # test exercises the cardinality cap the rule exists to
            # protect.
            with prof.span(f"k{i:04d}"):
                pass
        kernels = prof.profile_dict()["kernels"]
        assert len(kernels) == tracing.MAX_KERNELS + 1
        assert kernels[tracing.OVERFLOW_KERNEL]["calls"] == 10

    def test_merge_adds_counts_and_paths(self):
        a, b = _profiler(), _profiler()
        for p in (a, b):
            with p.span("k"):
                with p.span("n"):
                    pass
        a.merge(b)
        doc = a.profile_dict()
        assert doc["kernels"]["k"]["calls"] == 2
        assert doc["kernels"]["n"]["calls"] == 2
        by_stack = {tuple(p["stack"]): p["calls"] for p in doc["paths"]}
        assert by_stack[("k", "n")] == 2
        # Neither side keeps a timeline, so nothing is stitched.
        assert a.subtraces == []


class TestTwoViews:
    """One span feeds the profile always and the timeline on request."""

    def test_profile_only_tracer_keeps_no_span_tree(self):
        prof = _profiler()
        with prof.span("outer") as outer:
            with prof.span("inner"):
                pass
        assert prof.roots == [] and outer.children == []
        assert prof.to_dict()["spans"] == []
        # The span itself still times, for callers that read it.
        assert outer.duration_s > 0
        assert prof.profile_dict()["kernels"]["inner"]["calls"] == 1

    def test_timeline_and_profile_count_the_same_spans(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
        calls = {name: stat["calls"] for name, stat
                 in tracer.profile_dict()["kernels"].items()}
        assert calls == dict(_span_counts(tracer.to_dict()))

    def test_merge_stitches_a_subtrace_only_between_timelines(self):
        parent = Tracer(trace_id="sweep-7")
        job = Tracer(trace_id="sweep-7", process={"job": "tiny/quiet"})
        with job.span("sweep.job"):
            pass
        parent.merge(job)
        assert [sub["process"]["job"] for sub in parent.subtraces] == \
            ["tiny/quiet"]
        assert parent.profile_dict()["kernels"]["sweep.job"]["calls"] == 1
        profile_only = _profiler()
        profile_only.merge(job)
        assert profile_only.subtraces == []

    def test_finished_tracer_pickles(self):
        import pickle

        clock = {"t": 0.0}
        tracer = Tracer(process={"job": "tiny/quiet"})
        with tracer.span("sim.run", sim_clock=lambda: clock["t"]):
            clock["t"] = 900.0
        copy = pickle.loads(pickle.dumps(tracer))
        assert copy.to_dict()["spans"][0]["sim_duration_s"] == 900.0
        assert copy.profile_dict()["kernels"] == \
            tracer.profile_dict()["kernels"]


class TestExports:
    def _profiled(self):
        prof = _profiler()
        with prof.span("a"):
            with prof.span("b"):
                pass
        return prof

    def test_to_json_round_trips_sorted(self, tmp_path):
        path = export.write_profile(tmp_path / "p.json", self._profiled())
        doc = json.loads(path.read_text())
        assert list(doc["kernels"]) == sorted(doc["kernels"])
        assert doc["bucket_bounds_s"] == list(tracing.CALL_BUCKETS)

    def test_folded_lines(self):
        lines = export.folded(self._profiled()).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a ")
        assert lines[1].startswith("a;b ")
        for line in lines:
            int(line.rsplit(" ", 1)[1])  # integer microsecond weight

    def test_empty_folded_is_empty_string(self):
        assert export.folded(_profiler()) == ""

    def test_speedscope_document(self):
        doc = export.speedscope(self._profiled())
        frames = [f["name"] for f in doc["shared"]["frames"]]
        assert frames == ["a", "b"]
        prof_doc = doc["profiles"][0]
        assert prof_doc["type"] == "sampled"
        assert prof_doc["samples"] == [[0], [0, 1]]
        assert len(prof_doc["weights"]) == 2
        json.dumps(doc)

    def test_write_profile_dispatch(self, tmp_path):
        prof = self._profiled()
        native = export.write_profile(tmp_path / "p.json", prof)
        assert json.loads(native.read_text()) == prof.profile_dict()
        folded = export.write_profile(tmp_path / "p.folded", prof)
        assert folded.read_text() == export.folded(prof)
        scope = export.write_profile(tmp_path / "p.speedscope.json", prof)
        assert json.loads(scope.read_text())["profiles"][0]["type"] == \
            "sampled"

    def test_publish_metrics(self):
        prof = self._profiled()
        with metrics.use_registry(metrics.MetricsRegistry()) as registry:
            prof.publish_metrics()
            state = registry.snapshot_state()
        families = state["families"]
        calls = {tuple(s["labels"]): s["value"]
                 for s in families["netpower_profile_calls_total"][
                     "samples"]}
        assert calls == {("a",): 1, ("b",): 1}
        [hist_a, hist_b] = sorted(
            families["netpower_profile_call_seconds"]["samples"],
            key=lambda s: s["labels"])
        assert hist_a["count"] == 1 and hist_b["count"] == 1
        assert hist_a["sum"] >= hist_b["sum"]

    def test_publish_metrics_noop_when_disabled(self):
        assert not metrics.enabled()
        self._profiled().publish_metrics()  # must not raise


class TestActiveProfiler:
    def test_region_is_shared_noop_when_off(self):
        assert not tracing.enabled()
        assert tracing.span("x") is tracing.span("y")
        with tracing.span("x"):
            pass  # must not record anywhere

    def test_use_profiler_scopes_and_restores(self):
        prof = _profiler()
        with tracing.use_tracer(prof):
            assert tracing.enabled()
            with tracing.span("seen"):
                pass
        assert not tracing.enabled()
        assert tracing.span("later") is tracing.NULL_SPAN
        assert prof.profile_dict()["kernels"]["seen"]["calls"] == 1
        assert "later" not in prof.profile_dict()["kernels"]

    def test_set_profiler_returns_previous(self):
        first, second = _profiler(), Tracer()
        assert tracing.set_tracer(first) is None
        assert tracing.set_tracer(second) is first
        assert tracing.set_tracer(None) is second


class TestDeterminism:
    """Either view on vs off never changes a byte of seeded output."""

    def test_sweep_report_identical_with_profiling_on(self, tmp_path):
        off = tmp_path / "off.json"
        run_sweep(FAST, root_seed=7, workers=1, output=off)

        calls = {}
        for workers in (1, 2):
            for timeline in (False, True):
                out = tmp_path / f"w{workers}-{timeline}.json"
                tracer = Tracer(timeline=timeline)
                with tracing.use_tracer(tracer):
                    run_sweep(FAST, root_seed=7, workers=workers,
                              output=out)
                assert out.read_bytes() == off.read_bytes()
                kernels = tracer.profile_dict()["kernels"]
                # ... and the hot paths actually ran under the tracer.
                assert "kernel.apply_traffic" in kernels
                calls[workers, timeline] = {
                    name: stat["calls"] for name, stat in kernels.items()}
        # Workers ship their per-job tracers home and the parent merges,
        # so the totals match the inline run, with or without timeline.
        assert len({json.dumps(c, sort_keys=True)
                    for c in calls.values()}) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_profile_calls_match_stitched_timeline(self, tmp_path,
                                                   workers):
        tracer = Tracer()
        with tracing.use_tracer(tracer):
            run_sweep(FAST, root_seed=7, workers=workers,
                      output=tmp_path / "sweep.json")
        spans = _span_counts(tracer.to_dict())
        kernels = tracer.profile_dict()["kernels"]
        assert {"sweep.run", "sweep.job", "sim.steps",
                "kernel.wall_power"} <= set(kernels)
        for name, stat in kernels.items():
            assert stat["calls"] == spans[name], name
        assert set(spans) == set(kernels)

    def test_simulation_hot_paths_record_expected_kernels(self):
        from repro.sweep import JobSpec, run_job

        spec = JobSpec("tiny", "busy", "none", "balanced",
                       2 * 3600.0, 900.0)
        kernels = {}
        for engine in ("vector", "object"):
            with tracing.use_tracer(_profiler()) as prof:
                run_job(spec, root_seed=7, engine=engine)
            kernels[engine] = set(prof.profile_dict()["kernels"])
        for engine, seen in kernels.items():
            assert {"kernel.apply_traffic", "kernel.advance_counters",
                    "kernel.wall_power", "sim.run", "sim.steps",
                    "sweep.job"} <= seen, engine
        assert "kernel.snmp_poll" in kernels["vector"]

        # An Autopower unit and a mid-run event name the rest of the
        # step: the tick loop, the view sync, and event application.
        import numpy as np

        from repro.network import (FleetTrafficModel, NetworkSimulation,
                                   SetAdminState)
        from repro.sweep.matrix import build_topology

        for engine in ("vector", "object"):
            network = build_topology("tiny", rng=np.random.default_rng(7))
            traffic = FleetTrafficModel(network,
                                        rng=np.random.default_rng(8))
            sim = NetworkSimulation(network, traffic,
                                    rng=np.random.default_rng(9))
            host = sorted(network.routers)[0]
            sim.deploy_autopower(host)
            event = SetAdminState(at_s=1800.0, hostname=host,
                                  port_index=0, up=False)
            with tracing.use_tracer(_profiler()) as prof:
                sim.run(duration_s=4 * 900.0, step_s=900.0,
                        events=[event], engine=engine)
            seen = set(prof.profile_dict()["kernels"])
            assert "kernel.autopower" in seen, engine
            if engine == "vector":
                assert "kernel.sync_views" in seen
                assert seen & {"kernel.patch_routers", "kernel.refresh"}
            else:
                assert "kernel.events" in seen

    def test_engine_results_identical_with_profiling_on(self):
        from repro.sweep import JobSpec, run_job

        spec = JobSpec("tiny", "quiet", "hypnos-50", "balanced",
                       2 * 3600.0, 900.0)
        plain, _ = run_job(spec, root_seed=7, engine="vector")
        with tracing.use_tracer(_profiler()):
            profiled, _ = run_job(spec, root_seed=7, engine="vector")
        assert json.dumps(profiled, sort_keys=True) == \
            json.dumps(plain, sort_keys=True)


class TestProfileCommand:
    """``netpower profile`` and the CLI flags share one tracer."""

    def test_both_flags_write_two_views_of_one_tracer(self, tmp_path,
                                                      capsys):
        trace_path = tmp_path / "t.json"
        profile_path = tmp_path / "p.json"
        table_path = tmp_path / "table.json"
        assert main(["profile", "--preset", "synth-200", "--steps", "3",
                     "--out", str(table_path),
                     "--trace-out", str(trace_path),
                     "--profile-out", str(profile_path)]) == 0
        out = capsys.readouterr().out
        assert "kernel.wall_power" in out
        kernels = json.loads(profile_path.read_text())["kernels"]
        spans = _span_counts(json.loads(trace_path.read_text()))
        assert {name: stat["calls"] for name, stat in kernels.items()} \
            == dict(spans)
        assert kernels["cli.profile"]["calls"] == 1
        # --out is written inside the command, before cli.profile
        # closes; every other count already matches.
        table = json.loads(table_path.read_text())["kernels"]
        assert set(kernels) - set(table) == {"cli.profile"}
        assert all(table[name]["calls"] == kernels[name]["calls"]
                   for name in table)
        assert not tracing.enabled()

    def test_check_profile_names_each_stage(self, tmp_path, capsys):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "model.py").write_text(
            '"""Model."""\nimport time\n\n\n'
            'def stamp() -> float:\n'
            '    """Stamp."""\n'
            '    return time.time()  # netpower: ignore[NP-DET-001] -- ok\n')
        argv = ["check", str(package), "--format", "json"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        profile_path = tmp_path / "p.json"
        assert main(argv + ["--profile-out", str(profile_path)]) == 0
        assert capsys.readouterr().out == plain
        kernels = json.loads(profile_path.read_text())["kernels"]
        for name in ("analysis.parse", "analysis.file_rules",
                     "analysis.graph", "analysis.taint",
                     "analysis.project_rules", "analysis.suppressions"):
            assert kernels[name]["calls"] >= 1, name
        assert kernels["cli.check"]["calls"] == 1
        assert not tracing.enabled()
