"""The ``netpower check`` subcommand."""

import json
import textwrap

import pytest

from repro.analysis import REPORT_SCHEMA
from repro.cli import main

CLEAN = textwrap.dedent('''
    """A fixture module that satisfies every rule."""

    SCHEMA = "repro.fixture/v1"


    def f(x: int) -> int:
        """Double ``x``."""
        return 2 * x
    ''').lstrip("\n")

DIRTY = textwrap.dedent('''
    """A fixture module with a determinism violation."""
    import time


    def f() -> float:
        """Read the clock."""
        return time.time()
    ''').lstrip("\n")


@pytest.fixture
def tree(tmp_path):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    return package


class TestCheckCommand:
    def test_clean_tree_exits_zero(self, tree, capsys):
        (tree / "clean.py").write_text(CLEAN)
        code = main(["check", str(tree)])
        assert code == 0
        out = capsys.readouterr().out
        assert "checked 1 file(s): 0 finding(s)" in out

    def test_findings_exit_one(self, tree, capsys):
        (tree / "dirty.py").write_text(DIRTY)
        code = main(["check", str(tree)])
        assert code == 1
        out = capsys.readouterr().out
        assert "NP-DET-001" in out
        assert "core/dirty.py" in out

    def test_json_format(self, tree, capsys):
        (tree / "dirty.py").write_text(DIRTY)
        code = main(["check", str(tree), "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == REPORT_SCHEMA
        assert document["counts"]["findings"] == 1
        assert document["findings"][0]["rule"] == "NP-DET-001"

    def test_select_narrows_rules(self, tree, capsys):
        (tree / "dirty.py").write_text(DIRTY)
        code = main(["check", str(tree), "--select", "NP-SCHEMA"])
        assert code == 0
        assert "NP-DET-001" not in capsys.readouterr().out

    def test_stale_suppression_fails_the_run(self, tree, capsys):
        (tree / "stale.py").write_text(CLEAN.replace(
            "return 2 * x",
            "return 2 * x  # netpower: ignore[NP-DET-001] -- stale"))
        code = main(["check", str(tree)])
        assert code == 1
        assert "NP-SUPPRESS" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tree, capsys):
        code = main(["check", str(tree / "no-such-dir")])
        assert code == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        code = main(["check", "--list-rules"])
        assert code == 0
        out = capsys.readouterr().out
        for rule_id in ("NP-DET-001", "NP-UNIT-001", "NP-API-001",
                        "NP-SCHEMA-001"):
            assert rule_id in out

    def test_repository_source_tree_is_clean(self, capsys):
        # The CLI-level twin of tests/test_analysis_selfcheck.py.
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        code = main(["check", str(src)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert " 0 finding(s)" in out


class TestReportPaths:
    def test_colliding_report_paths_exit_two(self, tmp_path, capsys):
        # Outside a ``repro`` package a file reports under its bare
        # name, so two conftest.py files would share one report path.
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "conftest.py").write_text(DIRTY)
        code = main(["check", str(tmp_path / "a"), str(tmp_path / "b")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(tmp_path / "a" / "conftest.py") in captured.err
        assert str(tmp_path / "b" / "conftest.py") in captured.err

    def test_one_file_reached_twice_is_checked_once(self, tree, tmp_path,
                                                    monkeypatch, capsys):
        (tree / "dirty.py").write_text(DIRTY)
        monkeypatch.chdir(tmp_path)
        code = main(["check", str(tree / "dirty.py"),
                     "repro/core/dirty.py"])
        assert code == 1
        assert "checked 1 file(s): 1 finding(s)" in \
            capsys.readouterr().out

    def test_report_path_ignores_how_the_file_was_named(
            self, tree, monkeypatch, capsys):
        (tree / "dirty.py").write_text(DIRTY)
        monkeypatch.chdir(tree)
        for spelling in ("dirty.py", str(tree / "dirty.py")):
            code = main(["check", spelling, "--format", "json"])
            assert code == 1
            report = json.loads(capsys.readouterr().out)
            assert [(f["path"], f["rule"])
                    for f in report["findings"]] == \
                [("core/dirty.py", "NP-DET-001")]


class TestNoSideEffects:
    def test_check_writes_nothing(self, tmp_path, monkeypatch, capsys):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "dirty.py").write_text(DIRTY)
        (package / "clean.py").write_text(CLEAN)
        before = sorted(p.relative_to(tmp_path)
                        for p in tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        assert main(["check", str(package)]) == 1
        assert main(["check", str(package), "--format", "json"]) == 1
        capsys.readouterr()
        after = sorted(p.relative_to(tmp_path)
                       for p in tmp_path.rglob("*"))
        assert after == before


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
