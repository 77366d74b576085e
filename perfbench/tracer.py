"""Span recorder and the timing wrappers of the traced run.

The traced run patches the public entry point of every layer -- a
function in each module that imported it, or a method on its class --
with a wrapper from this file that records one span per call: name,
start, end, parent span and the step, job or request it belongs to.
Spans stay in memory and are written out when the run ends.  A target
that no longer exists is reported as a missing layer; the run goes on.

The benchmark deliberately does not import ``repro.obs.profile`` or
``repro.obs.tracing``: the program's own instrumentation may be merged
or renamed without breaking the measurement of it.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_STACK: "contextvars.ContextVar[Tuple[int, ...]]" = \
    contextvars.ContextVar("perfbench_stack", default=())
#: The step, job or request id stamped on every span opened under it.
CONTEXT: "contextvars.ContextVar[str]" = \
    contextvars.ContextVar("perfbench_context", default="")

Hook = Callable[[tuple, dict, object], None]


class Recorder:
    """Collects spans, counters and maxima in memory."""

    def __init__(self) -> None:
        #: ``[id, name, start, end, parent id (0 = root), context]``.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        #: Layers whose wrapper target could not be found.
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Bump a counter."""
        self.counts[name] = self.counts.get(name, 0.0) + float(amount)

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen under ``name``."""
        self.maxima[name] = max(self.maxima.get(name, value), float(value))

    def next_request(self) -> str:
        """A fresh request id for the serve context."""
        return f"request:{next(self._requests)}"

    def timed(self, name: str, fn: Callable, hook: Optional[Hook] = None,
              before: Optional[Callable[[tuple], None]] = None) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call."""
        spans = self.spans
        ids = self._ids

        def open_span(args: tuple):
            if before is not None:
                before(args)
            stack = _STACK.get()
            span_id = next(ids)
            token = _STACK.set(stack + (span_id,))
            return span_id, (stack[-1] if stack else 0), token

        def close_span(span_id: int, parent: int, token, start: float) -> None:
            end = time.perf_counter()
            _STACK.reset(token)
            spans.append([span_id, name, start, end, parent, CONTEXT.get()])

        if inspect.iscoroutinefunction(fn):
            async def async_wrapper(*args, **kwargs):
                span_id, parent, token = open_span(args)
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    close_span(span_id, parent, token, start)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            return async_wrapper

        def wrapper(*args, **kwargs):
            span_id, parent, token = open_span(args)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(span_id, parent, token, start)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def dump(self, path: Path) -> None:
        """Write everything recorded to ``path`` (JSON)."""
        path.write_text(json.dumps({
            "spans": self.spans, "counts": self.counts,
            "maxima": self.maxima, "missing": self.missing}))


def _patch_function(recorder: Recorder, layer: str, module_name: str,
                    name: str, hook: Optional[Hook],
                    before: Optional[Callable[[tuple], None]]) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, name)
    wrapper = recorder.timed(layer, original, hook, before)
    # Rebind every already-imported alias (``from x import f``) too.
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapper)


def _patch_method(recorder: Recorder, layer: str, module_name: str,
                  qualname: str, hook: Optional[Hook],
                  before: Optional[Callable[[tuple], None]]) -> None:
    module = importlib.import_module(module_name)
    class_name, attr = qualname.split(".")
    owner = getattr(module, class_name)
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(
            recorder.timed(layer, raw.__func__, hook, before))
    else:
        wrapped = recorder.timed(layer, raw, hook, before)
    setattr(owner, attr, wrapped)


def install(recorder: Recorder) -> None:
    """Wrap every target of :func:`targets`."""
    for layer, module_name, qualname, hook, before in targets(recorder):
        try:
            if "." in qualname:
                _patch_method(recorder, layer, module_name, qualname,
                              hook, before)
            else:
                _patch_function(recorder, layer, module_name, qualname,
                                hook, before)
        except (ImportError, AttributeError, ValueError):
            if layer not in recorder.missing:
                recorder.missing.append(layer)


def targets(recorder: Recorder):
    """``(span name, module, qualified name, hook, before)`` per target."""

    def windows(args, kwargs, result) -> None:
        hypnos = args[0]
        protected = hypnos.config.protected_links
        # Every preset leaves max_sleeping unset, so each window's greedy
        # pass tries every unprotected internal link once.
        recorder.add("sleep.hypnos.tried", sum(
            1 for link in hypnos.network.internal_links()
            if link.link_id not in protected))
        recorder.add("sleep.hypnos.slept", len(result))

    def patched(args, kwargs, result) -> None:
        recorder.add("network.engine.patched_routers", len(args[1]))

    def residual(args, kwargs, result) -> None:
        recorder.peak("obs.ledger.max_residual_w", args[0].max_residual_w)

    def inserted(args, kwargs, result) -> None:
        recorder.counts["serve.cache.entries"] = float(len(args[0]))

    def job_context(args) -> None:
        CONTEXT.set(f"job:{args[0].key}")

    def request_context(args) -> None:
        # NetpowerServer._route(self, method, path, body)
        CONTEXT.set(f"{recorder.next_request()} {args[1]} {args[2]}")

    return (
        ("network.synth.build", "repro.network.synth",
         "generate_synth_network", None, None),
        ("network.topology.build", "repro.network.topology",
         "build_switch_like_network", None, None),
        ("network.traffic.model", "repro.network.traffic",
         "FleetTrafficModel.__init__", None, None),
        ("network.traffic.reroute", "repro.network.traffic",
         "TrafficMatrix.reroute_without", None, None),
        ("sleep.hypnos.plan", "repro.sleep.hypnos", "Hypnos.plan",
         None, None),
        ("sleep.hypnos.plan_window", "repro.sleep.hypnos",
         "Hypnos.plan_window", windows, None),
        ("sleep.savings.estimate", "repro.sleep.savings", "plan_savings",
         None, None),
        ("network.engine.state_build", "repro.network.engine",
         "FleetState.__init__", None, None),
        ("network.engine.apply_traffic", "repro.network.engine",
         "FleetState.apply_traffic", None, None),
        ("network.engine.advance_counters", "repro.network.engine",
         "FleetState.advance_counters", None, None),
        ("network.engine.advance_noise", "repro.network.engine",
         "FleetState.advance_noise", None, None),
        ("network.engine.wall_power", "repro.network.engine",
         "FleetState.wall_power", None, None),
        ("network.engine.patch_routers", "repro.network.engine",
         "FleetState.patch_routers", patched, None),
        ("network.engine.refresh", "repro.network.engine",
         "FleetState.refresh", None, None),
        ("telemetry.snmp.poll", "repro.telemetry.snmp",
         "SnmpCollector.record_vector", None, None),
        ("telemetry.snmp.poll", "repro.telemetry.snmp",
         "SnmpCollector.record", None, None),
        ("telemetry.autopower.tick", "repro.telemetry.autopower",
         "AutopowerClient.tick", None, None),
        ("obs.ledger.record", "repro.obs.ledger",
         "LedgerAccumulator.record", residual, None),
        ("monitor.aggregate.on_step", "repro.monitor.aggregate",
         "AggregatingObserver.on_step", None, None),
        ("network.simulation.run", "repro.network.simulation",
         "NetworkSimulation.run", None, None),
        ("sweep.runner.run", "repro.sweep.runner", "run_sweep",
         None, None),
        ("sweep.runner.job", "repro.sweep.runner", "run_job",
         None, job_context),
        ("sweep.runner.report_write", "repro.sweep.runner",
         "_write_report", None, None),
        ("sweep.runner.report_write", "repro.sweep.runner",
         "_write_bench_rows", None, None),
        ("serve.state.load", "repro.serve.state", "FleetService.load",
         None, None),
        ("serve.state.whatif", "repro.serve.state", "FleetService.whatif",
         None, None),
        ("serve.schemas.parse", "repro.serve.schemas",
         "parse_predict_request", None, None),
        ("serve.schemas.encode", "repro.serve.schemas", "canonical_json",
         None, None),
        ("serve.cache.lookup", "repro.serve.cache", "PredictionCache.lookup",
         None, None),
        ("serve.cache.insert", "repro.serve.cache", "PredictionCache.insert",
         inserted, None),
        ("serve.batching.evaluate", "repro.serve.batching",
         "evaluate_group", None, None),
        ("core.prediction.predict_trace", "repro.core.prediction",
         "predict_trace", None, None),
        ("serve.app.request", "repro.serve.app", "NetpowerServer._route",
         None, request_context),
    )


def layer_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Calls, busy seconds and self seconds per span name.

    Busy time counts a span unless its parent has the same name; self
    time is a span's duration minus the time its direct children cover
    (children of one span never overlap: they run on its thread).
    """
    by_id = {span[0]: span for span in spans}
    covered: Dict[int, float] = {}
    for span in spans:
        if span[4]:
            covered[span[4]] = covered.get(span[4], 0.0) + span[3] - span[2]
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = span[3] - span[2]
        row = table.setdefault(span[1], {"calls": 0, "busy_s": 0.0,
                                         "self_s": 0.0})
        row["calls"] += 1
        parent = by_id.get(span[4])
        if parent is None or parent[1] != span[1]:
            row["busy_s"] += duration
        row["self_s"] += duration - covered.get(span[0], 0.0)
    return table
