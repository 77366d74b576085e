"""repro.obs -- the shared observability substrate.

Structured logging, a label-aware metrics registry, and spans (one
timed-region primitive with a profile and a timeline view) for every
subsystem of the toolchain: the fleet simulation, the NetPowerBench
lab, the derivation pipeline, Autopower telemetry, and the optimisation
analyses.  See ``docs/OBSERVABILITY.md`` for the instrument catalog and
naming conventions.

Design invariants:

* **Zero-cost when disabled.**  Metrics and tracing are off by default;
  instrumented call sites resolve to shared no-ops until a registry /
  tracer is installed (``--metrics-out`` / ``--trace-out`` /
  ``--profile-out`` do this in the CLI).
* **Determinism is untouched.**  Instruments only read values; seeded
  simulation and derivation outputs are byte-identical with
  observability on or off.  Wall-clock readings live only in metric
  values, log timestamps, and trace exports.
"""

from repro.obs import export, logging, metrics, tracing
from repro.obs.export import (
    chrome_trace,
    render_prometheus,
    snapshot,
    write_metrics,
    write_profile,
    write_trace,
)
from repro.obs.logging import (
    ConsoleFormatter,
    JsonLinesFormatter,
    configure,
    get_logger,
)
from repro.obs.metrics import (
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    set_registry,
    use_registry,
)
from repro.obs.tracing import Span, Tracer, set_tracer, span, use_tracer

#: Modules that declare instruments; imported by
#: :func:`load_instrument_catalog` so an export carries the complete
#: instrument surface even for subsystems a command never exercised.
_INSTRUMENTED_MODULES = (
    "repro.network.simulation",
    "repro.network.engine",
    "repro.lab.orchestrator",
    "repro.core.derivation",
    "repro.telemetry.autopower",
    "repro.psu_opt.analysis",
    "repro.sleep.savings",
    "repro.sleep.rate_adaptation",
    "repro.monitor.rollup",
    "repro.monitor.alerts",
    "repro.sweep.runner",
    "repro.obs.ledger",
    "repro.obs.tracing",
)


def load_instrument_catalog() -> None:
    """Import every instrumented module so all declarations exist."""
    import importlib

    for module in _INSTRUMENTED_MODULES:
        importlib.import_module(module)


__all__ = [
    "export",
    "logging",
    "metrics",
    "tracing",
    "chrome_trace",
    "render_prometheus",
    "snapshot",
    "write_metrics",
    "write_profile",
    "write_trace",
    "ConsoleFormatter",
    "JsonLinesFormatter",
    "configure",
    "get_logger",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "set_registry",
    "use_registry",
    "Span",
    "Tracer",
    "set_tracer",
    "span",
    "use_tracer",
    "load_instrument_catalog",
]
