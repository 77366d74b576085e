"""Smoke tests for the engine benchmark harness (:mod:`repro.bench`).

The full benchmark takes minutes; here we only check that a truncated
``--quick`` run exits cleanly and writes a well-formed report, and that
the CLI wiring rejects bad arguments.  The real performance assertion
lives in ``benchmarks/test_perf_simulation.py``.
"""

from __future__ import annotations

import copy
import io
import json
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main as cli_main


class TestBenchModule:
    def test_quick_report_is_well_formed(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = cli_main(["bench", "--quick", "--steps", "20",
                       "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema"] == bench.SCHEMA
        assert report["generated_by"] == "netpower bench"
        assert report["seed"] == 7
        assert [c["name"] for c in report["cases"]] == ["small"]
        case = report["cases"][0]
        for key in ("routers", "ports", "links", "n_steps", "step_s",
                    "object", "vector", "phases", "speedup",
                    "total_power_max_rel_err"):
            assert key in case, key
        assert case["n_steps"] == 20
        for engine in ("object", "vector"):
            assert case[engine]["wall_s"] > 0
            assert case[engine]["ms_per_step"] > 0
            # Phase timings come from the tracing spans; the run phase
            # is the same measurement the wall_s headline reports.
            assert case["phases"][engine]["build_s"] >= 0
            assert case["phases"][engine]["run_s"] > 0
        assert case["phases"]["crosscheck_s"] >= 0
        # Same seeds -> same fleet; the engines must agree.
        assert case["total_power_max_rel_err"] < 1e-9

    def test_rejects_nonpositive_steps(self, tmp_path):
        rc = cli_main(["bench", "--quick", "--steps", "0",
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2

    def test_case_table(self):
        assert set(bench.DEFAULT_CASES) <= set(bench.CASES)
        assert "large" in bench.CASES
        assert bench.CASES["large"].n_steps == 10000


class TestReportMerging:
    """A subset run must merge into an existing report, not replace it."""

    def test_subset_run_keeps_other_cases(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        # A fake previous full run with a hand-written medium entry.
        previous_medium = {"name": "medium", "seed": 3, "n_steps": 1,
                          "object": {"wall_s": 9.9}}
        out.write_text(json.dumps({
            "schema": bench.SCHEMA, "seed": 3, "step_s": bench.STEP_S,
            "cases": [previous_medium]}))
        rc = cli_main(["bench", "--quick", "--steps", "5", "--seed", "11",
                       "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        # Suite order, with the untouched medium entry preserved.
        assert [c["name"] for c in report["cases"]] == ["small", "medium"]
        assert report["cases"][1] == previous_medium
        assert report["cases"][0]["seed"] == 11
        assert report["seed"] == 11
        assert "kept previous entries for: medium" in \
            capsys.readouterr().out

    def test_rerun_replaces_same_case(self, tmp_path):
        out = tmp_path / "bench.json"
        cli_main(["bench", "--quick", "--steps", "5", "--output", str(out)])
        first = json.loads(out.read_text())
        cli_main(["bench", "--quick", "--steps", "8", "--output", str(out)])
        second = json.loads(out.read_text())
        assert [c["name"] for c in first["cases"]] == ["small"]
        assert [c["name"] for c in second["cases"]] == ["small"]
        assert second["cases"][0]["n_steps"] == 8

    def test_other_schema_is_not_merged(self, tmp_path):
        out = tmp_path / "bench.json"
        out.write_text(json.dumps({
            "schema": "repro.bench.simulation/v2", "seed": 7,
            "cases": [{"name": "large", "n_steps": 10000}]}))
        cli_main(["bench", "--quick", "--steps", "5", "--output", str(out)])
        report = json.loads(out.read_text())
        # The v2 entry's layout predates per-case seeds; dropping it
        # beats grafting stale semantics onto a v3 report.
        assert [c["name"] for c in report["cases"]] == ["small"]

    def test_write_killed_before_the_rename_keeps_the_previous_report(
            self, tmp_path, monkeypatch):
        # A report write that dies half way (a kill, a full disk) must
        # leave the last report whole: a torn one reads as empty, and
        # the next subset run would then drop every case it did not
        # re-run.
        out = tmp_path / "bench.json"
        previous_medium = {"name": "medium", "seed": 3, "n_steps": 1,
                           "object": {"wall_s": 9.9}}
        out.write_text(json.dumps({
            "schema": bench.SCHEMA, "seed": 3, "step_s": bench.STEP_S,
            "cases": [previous_medium]}))
        before = out.read_text()
        write_text = Path.write_text

        def torn_write(path, text, *args, **kwargs):
            write_text(path, text[:len(text) // 2], *args, **kwargs)
            raise OSError("killed mid-write")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="killed mid-write"):
            bench.run_benchmarks(["small"], seed=11, output=out,
                                 steps_override=5, stream=io.StringIO())
        monkeypatch.undo()
        assert out.read_text() == before
        assert bench.previous_cases(out) == {"medium": previous_medium}

    def test_corrupt_previous_report_is_ignored(self, tmp_path):
        out = tmp_path / "bench.json"
        out.write_text("{not json")
        rc = cli_main(["bench", "--quick", "--steps", "5",
                       "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["cases"]] == ["small"]


class TestProfileBlocks:
    def test_engine_entries_carry_kernel_profiles(self, tmp_path):
        out = tmp_path / "bench.json"
        assert cli_main(["bench", "--quick", "--steps", "20",
                         "--output", str(out)]) == 0
        case = json.loads(out.read_text())["cases"][0]
        for engine in ("object", "vector"):
            prof = case[engine]["profile"]
            assert "kernel.apply_traffic" in prof
            assert "kernel.wall_power" in prof
            for stats in prof.values():
                assert stats["calls"] > 0
                assert stats["cum_ms"] >= stats["self_ms"] >= 0


class TestCompareReports:
    """The regression sentinel: diffing two bench reports."""

    def _report(self, tmp_path):
        out = tmp_path / "bench.json"
        assert cli_main(["bench", "--quick", "--steps", "20",
                         "--output", str(out)]) == 0
        return json.loads(out.read_text())

    def test_identical_reports_are_clean(self, tmp_path):
        report = self._report(tmp_path)
        comparison = bench.compare_reports(report, report,
                                           tolerance=0.15,
                                           min_kernel_ms=0.0)
        assert comparison["checked"] > 0
        assert comparison["regressions"] == []
        assert comparison["improvements"] == []

    def test_injected_kernel_slowdown_is_a_regression(self, tmp_path):
        current = self._report(tmp_path)
        baseline = copy.deepcopy(current)
        # Make the current run read 25% slower than the baseline on one
        # kernel -- past the 15% default tolerance.
        kernel = baseline["cases"][0]["vector"]["profile"][
            "kernel.apply_traffic"]
        kernel["cum_ms"] /= 1.25
        comparison = bench.compare_reports(current, baseline,
                                           tolerance=0.15,
                                           min_kernel_ms=0.0)
        metrics = [r["metric"] for r in comparison["regressions"]]
        assert metrics == ["kernel:kernel.apply_traffic"]
        assert comparison["regressions"][0]["ratio"] == \
            pytest.approx(1.25, rel=1e-3)

    def test_quiet_kernels_are_skipped(self, tmp_path):
        current = self._report(tmp_path)
        baseline = copy.deepcopy(current)
        for entry in baseline["cases"]:
            for engine in ("object", "vector"):
                for stats in entry[engine]["profile"].values():
                    stats["cum_ms"] /= 10.0
        comparison = bench.compare_reports(current, baseline,
                                           min_kernel_ms=1e9)
        assert not any(r["metric"].startswith("kernel:")
                       for r in comparison["regressions"])

    def test_schema_mismatch_raises(self, tmp_path):
        report = self._report(tmp_path)
        stale = dict(report, schema="repro.bench.simulation/v5")
        with pytest.raises(ValueError, match="regenerate the baseline"):
            bench.compare_reports(report, stale)
        with pytest.raises(ValueError, match="regenerate the baseline"):
            bench.compare_reports(stale, report)

    def test_cli_bench_compare_flags(self, tmp_path, capsys):
        report = self._report(tmp_path)
        current_path = tmp_path / "bench.json"
        # Clean self-comparison at a generous tolerance: exit 0 (the
        # re-run's timings are noisy, the structure is what we pin).
        rc = cli_main(["bench", "--quick", "--steps", "20",
                       "--output", str(tmp_path / "rerun.json"),
                       "--compare", str(current_path),
                       "--tolerance", "100.0", "--history", "-"])
        assert rc == 0
        # A baseline that makes every metric read much slower: exit 1.
        slowed = tmp_path / "slow.json"
        scaled = copy.deepcopy(report)
        for entry in scaled["cases"]:
            for engine in ("object", "vector"):
                for key in ("ms_per_step", "ms_per_step_per_1k_routers"):
                    entry[engine][key] /= 1000.0
        slowed.write_text(json.dumps(scaled))
        rc = cli_main(["bench", "--quick", "--steps", "20",
                       "--output", str(tmp_path / "rerun2.json"),
                       "--compare", str(slowed), "--history", "-"])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out
        # An unreadable baseline fails fast, before the run: exit 2.
        rc = cli_main(["bench", "--quick", "--steps", "20",
                       "--output", str(tmp_path / "rerun3.json"),
                       "--compare", str(tmp_path / "nope.json")])
        assert rc == 2
        capsys.readouterr()


class TestBenchHistory:
    def test_history_appends_one_line_per_run(self, tmp_path):
        out = tmp_path / "bench.json"
        history = tmp_path / "BENCH_history.jsonl"
        for _ in range(2):
            assert cli_main(["bench", "--quick", "--steps", "10",
                             "--output", str(out)]) == 0
        lines = history.read_text().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert entry["schema"] == bench.HISTORY_SCHEMA
        small = entry["cases"]["small"]
        for engine in ("object", "vector"):
            assert small[engine]["ms_per_step"] > 0
            assert small[engine]["kernel_cum_ms"]
        # No wall-clock date: append order is the trajectory.
        assert "date" not in entry and "time" not in entry

    def test_dash_disables_history(self, tmp_path):
        out = tmp_path / "bench.json"
        assert cli_main(["bench", "--quick", "--steps", "10",
                         "--output", str(out), "--history", "-"]) == 0
        assert not (tmp_path / "BENCH_history.jsonl").exists()


class TestBenchCli:
    def test_cli_bench_quick(self, tmp_path):
        out = tmp_path / "cli_bench.json"
        rc = cli_main(["bench", "--quick", "--steps", "10",
                       "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["cases"][0]["n_steps"] == 10

    def test_cli_rejects_unknown_case(self, tmp_path):
        rc = cli_main(["bench", "--cases", "galactic",
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
