"""NP-OBS fixtures: span names must be string literals."""

import textwrap

import pytest

from repro.analysis import check_source


def check(text: str, path: str = "network/fixture.py"):
    return check_source(textwrap.dedent(text).lstrip("\n"), path)


def ids(result) -> list:
    """Only the NP-OBS findings; other families have their own tests."""
    return [finding.rule_id for finding in result.findings
            if finding.rule_id.startswith("NP-OBS")]


class TestLiteralNamesPass:
    @pytest.mark.parametrize("call", [
        'tracing.span("sim.run", engine="vector")',
        'tracing.span("kernel.wall_power")',
        'span("sweep.job", key=key)',
        'span("kernel.refresh")',
        'tracer.span("bench.case", case=name)',
    ])
    def test_literal_first_argument(self, call):
        result = check(f'''
            """Mod."""


            def f(tracing, tracer, span, key, name):
                """F."""
                with {call}:
                    pass
            ''')
        assert ids(result) == []

    def test_unrelated_span_calls_ignored(self):
        # re.Match.span() takes no name argument; must not fire.
        result = check('''
            """Mod."""
            import re


            def f(text: str):
                """F."""
                match = re.search("x", text)
                return match.span() if match else None
            ''')
        assert ids(result) == []


class TestDynamicNamesFlagged:
    @pytest.mark.parametrize("call,hint", [
        ('tracing.span(f"cli.{name}")', "f-string"),
        ("tracer.span(name)", "variable"),
        ('span("kernel." + suffix)', "computed string"),
        ('tracing.span(make_name())', "call result"),
    ])
    def test_dynamic_first_argument(self, call, hint):
        result = check(f'''
            """Mod."""


            def f(tracing, tracer, span, name, suffix, make_name):
                """F."""
                with {call}:
                    pass
            ''')
        assert ids(result) == ["NP-OBS-001"]
        finding = [f for f in result.findings
                   if f.rule_id == "NP-OBS-001"][0]
        assert hint in finding.message

    def test_fires_outside_det_scope_too(self):
        result = check('''
            """Mod."""


            def f(tracing, name):
                """F."""
                with tracing.span(name):
                    pass
            ''', path="telemetry/fixture.py")
        assert ids(result) == ["NP-OBS-001"]

    def test_suppressible_with_justification(self):
        result = check('''
            """Mod."""


            def f(tracing, command):
                """F."""
                # netpower: ignore[NP-OBS-001] -- closed choice set.
                with tracing.span(f"cli.{command}"):
                    pass
            ''')
        assert ids(result) == []
        assert [f.rule_id for f in result.suppressed
                if f.rule_id.startswith("NP-OBS")] == ["NP-OBS-001"]


class TestForwardingExemption:
    def test_obs_modules_may_forward_names(self):
        source = '''
            """Mod."""


            def span(name: str, tracer):
                """Forwarding helper."""
                return tracer.span(name)
            '''
        flagged = check(source, path="network/fixture.py")
        assert ids(flagged) == ["NP-OBS-001"]
        exempt = check(source, path="obs/tracing.py")
        assert ids(exempt) == []


class TestRepositoryIsClean:
    def test_src_tree_has_no_obs_findings(self):
        from pathlib import Path

        from repro.analysis import check_paths

        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        result = check_paths([src])
        assert not [f for f in result.findings
                    if f.rule_id.startswith("NP-OBS")]
