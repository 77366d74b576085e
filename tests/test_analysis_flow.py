"""NP-FLOW: interprocedural taint tracking across modules."""

import textwrap

import pytest

from repro.analysis import check_sources


def src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def flow(result) -> list:
    return [f for f in result.findings
            if f.rule_id.startswith("NP-FLOW")]


CLOCK_HELPER = src('''
    """Timing helpers (outside the deterministic packages)."""
    import time


    def raw_ms() -> float:
        """The raw reading."""
        return time.time() * 1e3


    def now_ms() -> float:
        """A second hop: NP-FLOW must follow assignments too."""
        value = raw_ms()
        return value
    ''')


class TestTaintedViaTwoHops:
    def test_exactly_one_finding_with_full_chain(self):
        result = check_sources({
            "obs/clockutil.py": CLOCK_HELPER,
            "core/model.py": src('''
                """Core model."""
                from repro.obs.clockutil import now_ms


                def predict() -> float:
                    """Predict."""
                    stamp = now_ms()
                    return stamp
                '''),
        })
        findings = flow(result)
        assert len(findings) == 1
        message = findings[0].message
        # The full source -> sink witness chain, every hop present.
        assert "time.time()" in message
        assert "repro.obs.clockutil.raw_ms" in message
        assert "repro.obs.clockutil.now_ms" in message
        assert "repro.core.model.predict" in message
        assert findings[0].path == "core/model.py"

    def test_no_finding_outside_sink_scope(self):
        result = check_sources({
            "obs/clockutil.py": CLOCK_HELPER,
            "figures.py": src('''
                """Figures are not under the determinism contract."""
                from repro.obs.clockutil import now_ms


                def annotate() -> float:
                    """Annotate."""
                    return now_ms()
                '''),
        })
        assert flow(result) == []


class TestLaunderThroughDefaultArg:
    def test_default_argument_seeds_the_parameter(self):
        result = check_sources({
            "obs/clockutil.py": src('''
                """Helper."""
                import time


                def stamp(t: float = time.time()) -> float:
                    """The default is evaluated once, at import."""
                    return t
                '''),
            "core/model.py": src('''
                """Core model."""
                from repro.obs.clockutil import stamp


                def predict() -> float:
                    """Predict."""
                    return stamp()
                '''),
        })
        findings = flow(result)
        assert len(findings) == 1
        assert "time.time()" in findings[0].message
        assert "repro.obs.clockutil.stamp" in findings[0].message


class TestTaintedArgumentIntoSink:
    def test_outside_code_passing_taint_in_is_flagged(self):
        result = check_sources({
            "core/model.py": src('''
                """Core model."""


                def record(value: float) -> float:
                    """Record."""
                    return value
                '''),
            "obs/feeder.py": src('''
                """Feeder."""
                import time

                from repro.core.model import record


                def push() -> float:
                    """Push a wall-clock value into core code."""
                    return record(time.time())
                '''),
        })
        findings = flow(result)
        assert len(findings) == 1
        assert findings[0].path == "obs/feeder.py"
        assert "repro.core.model.record" in findings[0].message


class TestSanctionedAndKilledTaint:
    def test_wallclock_allowlist_does_not_seed(self):
        result = check_sources({
            "obs/tracing.py": src('''
                """The sanctioned timing path."""
                import time


                def span_start() -> float:
                    """Span start."""
                    return time.time()
                '''),
            "core/model.py": src('''
                """Core model."""
                from repro.obs.tracing import span_start


                def predict() -> float:
                    """Predict."""
                    return span_start()
                '''),
        })
        assert flow(result) == []

    def test_rng_taint_is_tracked(self):
        result = check_sources({
            "obs/entropy.py": src('''
                """Helper."""
                import random


                def jitter() -> float:
                    """Ambient RNG."""
                    return random.random()
                '''),
            "core/model.py": src('''
                """Core model."""
                from repro.obs.entropy import jitter


                def predict() -> float:
                    """Predict."""
                    return jitter()
                '''),
        })
        findings = flow(result)
        assert len(findings) == 1
        assert "ambient-RNG" in findings[0].message
        assert "random.random()" in findings[0].message

    def test_sorted_kills_order_taint_but_not_value_taint(self):
        result = check_sources({
            "obs/helpers.py": src('''
                """Helper."""


                def hosts(csv: str) -> list:
                    """Sorted set: deterministic order."""
                    return sorted(set(csv.split(",")))


                def raw_hosts(csv: str) -> set:
                    """Unsorted set: hash order."""
                    return set(csv.split(","))
                '''),
            "core/model.py": src('''
                """Core model."""
                from repro.obs.helpers import hosts, raw_hosts


                def rows(csv: str) -> tuple:
                    """Rows."""
                    return (hosts(csv), raw_hosts(csv))
                '''),
        })
        findings = flow(result)
        assert len(findings) == 1
        assert "unordered-iteration" in findings[0].message
        assert "raw_hosts" in findings[0].message


class TestNestedDefResolution:
    def test_first_nested_def_in_source_order_wins(self):
        # Two nested ``helper`` defs at different depths: the call
        # resolves to the first one a depth-first scan of the body
        # meets (the one inside the ``if``), not the shallower one.
        result = check_sources({
            "obs/clockutil.py": src('''
                """Helper with two nested defs of one name."""
                import time

                FLAG = True


                def stamp() -> float:
                    """Stamp."""
                    if FLAG:
                        def helper() -> float:
                            return time.time()

                    def helper() -> float:
                        return 0.0

                    return helper()
                '''),
            "core/model.py": src('''
                """Core model."""
                from repro.obs.clockutil import stamp


                def predict() -> float:
                    """Predict."""
                    return stamp()
                '''),
        })
        findings = flow(result)
        assert len(findings) == 1
        assert "repro.obs.clockutil.stamp.helper" in findings[0].message


class TestSuppression:
    def test_flow_finding_can_be_suppressed_with_reason(self):
        result = check_sources({
            "obs/clockutil.py": CLOCK_HELPER,
            "core/model.py": src('''
                """Core model."""
                from repro.obs.clockutil import now_ms


                def predict() -> float:
                    """Predict."""
                    return now_ms()  # netpower: ignore[NP-FLOW-001] -- fixture
                '''),
        })
        assert flow(result) == []
        assert [f.rule_id for f in result.suppressed] == ["NP-FLOW-001"]
        assert result.unused_suppressions == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
