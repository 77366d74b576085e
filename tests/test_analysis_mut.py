"""NP-MUT: FleetState column writes outside the engine kernels."""

import textwrap

import pytest

from repro.analysis import check_sources


def src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def mut(result) -> list:
    return [f for f in result.findings if f.rule_id == "NP-MUT-001"]


ENGINE = src('''
    """The columnar engine (fixture)."""


    class FleetState:
        """Columnar fleet state."""

        def __init__(self) -> None:
            """Init."""
            self.static_w = [0.0]

        def patch_routers(self, patch: dict) -> None:
            """The sanctioned write path."""
            self.static_w[0] = float(patch.get("w", 0.0))
    ''')


class TestColumnWrites:
    def test_annotated_local_write_is_flagged(self):
        result = check_sources({
            "network/engine.py": ENGINE,
            "serve/state.py": src('''
                """Serve layer."""
                from repro.network.engine import FleetState


                def tweak(state: FleetState) -> None:
                    """A stray element store."""
                    state.static_w[0] = 99.0
                '''),
        })
        findings = mut(result)
        assert len(findings) == 1
        message = findings[0].message
        assert "static_w" in message
        assert "repro.serve.state.tweak" in message
        assert "patch_routers" in message

    def test_column_rebind_is_flagged(self):
        result = check_sources({
            "network/engine.py": ENGINE,
            "serve/state.py": src('''
                """Serve layer."""
                from repro.network.engine import FleetState


                def swap(state: FleetState) -> None:
                    """Rebinding the whole column is just as bad."""
                    state.static_w = [1.0]
                '''),
        })
        assert len(mut(result)) == 1

    def test_write_through_owning_object_is_flagged(self):
        result = check_sources({
            "network/engine.py": ENGINE,
            "serve/state.py": src('''
                """Serve layer."""
                from repro.network.engine import FleetState


                class Service:
                    """Holds a state."""

                    def __init__(self) -> None:
                        """Init."""
                        self.state = FleetState()

                    def tweak(self) -> None:
                        """Write via the attribute chain."""
                        self.state.static_w[0] = 1.0
                '''),
        })
        findings = mut(result)
        assert len(findings) == 1
        assert "Service.tweak" in findings[0].message

    def test_reads_are_fine(self):
        result = check_sources({
            "network/engine.py": ENGINE,
            "serve/state.py": src('''
                """Serve layer."""
                from repro.network.engine import FleetState


                def total(state: FleetState) -> float:
                    """Reads never desynchronise anything."""
                    return sum(state.static_w)
                '''),
        })
        assert mut(result) == []

    def test_engine_module_is_exempt(self):
        # The writes inside network/engine.py itself (patch_routers)
        # must not self-flag: mut_allow covers the kernel module.
        result = check_sources({"network/engine.py": ENGINE})
        assert mut(result) == []

    def test_other_class_with_same_column_name_is_fine(self):
        result = check_sources({
            "network/engine.py": ENGINE,
            "serve/state.py": src('''
                """Serve layer."""


                class Scratch:
                    """Not a FleetState."""

                    def __init__(self) -> None:
                        """Init."""
                        self.static_w = [0.0]


                def tweak(scratch: Scratch) -> None:
                    """Writing an unrelated class is fine."""
                    scratch.static_w[0] = 1.0
                '''),
        })
        assert mut(result) == []


class TestFirstBindingWins:
    """Attribute types resolve to the first binding ``ast.walk`` meets.

    The walk is breadth-first, so a statement-level binding in a later
    method beats one nested inside an ``if`` of an earlier method.
    """

    HOLDER = src('''
        """Telemetry holder (fixture)."""
        from repro.network.engine import FleetState


        class Other:
            """Not a FleetState."""

            def __init__(self) -> None:
                self.static_w = [0.0]


        class Holder:
            """Binds ``state`` twice, at two depths."""

            def early(self, flag: bool) -> None:
                """Binds an Other one level down."""
                if flag:
                    self.state = Other()

            def late(self) -> None:
                """Binds a FleetState at statement level."""
                self.state = FleetState()

            def poke(self) -> None:
                """Writes through the resolved binding."""
                self.state.static_w[0] = 1.0
        ''')

    def test_shallower_binding_in_later_method_wins(self):
        result = check_sources({
            "network/engine.py": ENGINE,
            "telemetry/holder.py": self.HOLDER,
        })
        findings = mut(result)
        assert [(f.path, f.line) for f in findings] == \
            [("telemetry/holder.py", 26)]
        assert "Holder.poke" in findings[0].message


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
