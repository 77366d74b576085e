"""NP-ASYNC: event-loop safety rules over fixture programs."""

import textwrap

import pytest

from repro.analysis import check_sources


def src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def by_rule(result, rule_id: str) -> list:
    return [f for f in result.findings if f.rule_id == rule_id]


class TestBlockingOnTheLoop:
    def test_direct_sleep_is_flagged(self):
        result = check_sources({
            "serve/handlers.py": src('''
                """Handlers."""
                import time


                async def handle() -> None:
                    """Handle one request."""
                    time.sleep(0.1)
                '''),
        })
        findings = by_rule(result, "NP-ASYNC-001")
        assert len(findings) == 1
        message = findings[0].message
        assert "blocking call on the event loop" in message
        assert "repro.serve.handlers.handle" in message
        assert "time.sleep()" in message

    def test_blocking_through_sync_helper_in_other_module(self):
        result = check_sources({
            "diskutil.py": src('''
                """Disk helper."""


                def persist(path: str, text: str) -> None:
                    """Blocking write, fine from sync code."""
                    with open(path, "w") as handle:
                        handle.write(text)
                '''),
            "serve/handlers.py": src('''
                """Handlers."""
                from repro.diskutil import persist


                async def handle() -> None:
                    """The blocking call is two frames down."""
                    persist("/tmp/out", "x")
                '''),
        })
        findings = by_rule(result, "NP-ASYNC-001")
        assert len(findings) == 1
        message = findings[0].message
        # The chain names every hop down to the primitive.
        assert "repro.serve.handlers.handle" in message
        assert "repro.diskutil.persist" in message
        assert "open()" in message

    def test_run_in_executor_escapes_the_loop(self):
        result = check_sources({
            "serve/handlers.py": src('''
                """Handlers."""
                import asyncio
                import time


                async def handle() -> None:
                    """The sanctioned shape for blocking work."""
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, time.sleep, 0.1)
                '''),
        })
        assert by_rule(result, "NP-ASYNC-001") == []

    def test_sync_caller_is_not_flagged(self):
        result = check_sources({
            "serve/handlers.py": src('''
                """Handlers."""
                import time


                def warmup() -> None:
                    """Sync code may block."""
                    time.sleep(0.1)
                '''),
        })
        assert by_rule(result, "NP-ASYNC-001") == []

    def test_direct_predict_trace_is_flagged(self):
        result = check_sources({
            "core/model.py": src('''
                """Core model."""


                def predict_trace(doc: dict) -> dict:
                    """The expensive kernel."""
                    return doc
                '''),
            "serve/handlers.py": src('''
                """Handlers."""
                from repro.core.model import predict_trace


                async def handle(doc: dict) -> dict:
                    """Bypasses the prediction cache."""
                    return predict_trace(doc)
                '''),
        })
        findings = by_rule(result, "NP-ASYNC-001")
        assert len(findings) == 1
        assert "PredictionCache" in findings[0].message


class TestUnawaited:
    def test_bare_coroutine_call_is_flagged(self):
        result = check_sources({
            "serve/handlers.py": src('''
                """Handlers."""


                async def audit() -> None:
                    """Audit."""


                async def handle() -> None:
                    """The coroutine object is built and dropped."""
                    audit()
                '''),
        })
        findings = by_rule(result, "NP-ASYNC-002")
        assert len(findings) == 1
        assert "repro.serve.handlers.audit" in findings[0].message
        assert "never awaited" in findings[0].message

    def test_awaited_call_is_fine(self):
        result = check_sources({
            "serve/handlers.py": src('''
                """Handlers."""


                async def audit() -> None:
                    """Audit."""


                async def handle() -> None:
                    """Handle."""
                    await audit()
                '''),
        })
        assert by_rule(result, "NP-ASYNC-002") == []

    def test_dropped_create_task_handle_is_flagged(self):
        result = check_sources({
            "serve/handlers.py": src('''
                """Handlers."""
                import asyncio


                async def audit() -> None:
                    """Audit."""


                async def handle() -> None:
                    """Nothing holds the task alive."""
                    asyncio.create_task(audit())
                '''),
        })
        findings = by_rule(result, "NP-ASYNC-002")
        assert len(findings) == 1
        assert "task handle dropped" in findings[0].message

    def test_kept_handle_is_fine(self):
        result = check_sources({
            "serve/handlers.py": src('''
                """Handlers."""
                import asyncio


                async def audit() -> None:
                    """Audit."""


                async def handle() -> None:
                    """Handle."""
                    task = asyncio.create_task(audit())
                    await task
                '''),
        })
        assert by_rule(result, "NP-ASYNC-002") == []


class TestCrossTaskState:
    def test_attribute_written_under_two_roots_is_flagged(self):
        result = check_sources({
            "serve/workers.py": src('''
                """Two tasks mutate the same attribute."""
                import asyncio


                class App:
                    """App."""

                    def __init__(self) -> None:
                        """Init."""
                        self.hits = 0

                    async def pinger(self) -> None:
                        """Writer one."""
                        self.hits += 1

                    async def poller(self) -> None:
                        """Writer two."""
                        self.hits = 0

                    async def run(self) -> None:
                        """Spawn both."""
                        first = asyncio.create_task(self.pinger())
                        second = asyncio.create_task(self.poller())
                        await first
                        await second
                '''),
        })
        findings = by_rule(result, "NP-ASYNC-003")
        assert len(findings) == 1
        message = findings[0].message
        assert "App.hits" in message
        assert "2 task roots" in message

    def test_single_root_is_fine(self):
        result = check_sources({
            "serve/workers.py": src('''
                """One task, one writer."""
                import asyncio


                class App:
                    """App."""

                    def __init__(self) -> None:
                        """Init."""
                        self.hits = 0

                    async def pinger(self) -> None:
                        """The only writer."""
                        self.hits += 1

                    async def run(self) -> None:
                        """Spawn one."""
                        first = asyncio.create_task(self.pinger())
                        await first
                '''),
        })
        assert by_rule(result, "NP-ASYNC-003") == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
