"""Exporters: Prometheus text format, JSON snapshots, traces, profiles.

``render_prometheus`` emits the text exposition format (``# HELP`` /
``# TYPE`` headers, histogram ``_bucket``/``_sum``/``_count`` series with
cumulative ``le`` buckets), suitable for a file-based scrape or for
``promtool check metrics``.  ``snapshot`` serialises the same registry as
a JSON document for programmatic ingestion.  The two views of a
:class:`~repro.obs.tracing.Tracer` have one writer each:
``write_trace`` dumps the span tree -- as the native JSON form, or as
Chrome trace-event format (loadable in Perfetto / ``chrome://tracing``)
when the path ends in ``.trace.json`` -- and ``write_profile`` dumps the
profile aggregate as the native JSON form, folded-stack flamegraph text
(``.folded``) or speedscope JSON (``.speedscope.json``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro import units
from repro.ioutil import atomic_write_text
from repro.obs.metrics import Histogram, MetricFamily, MetricsRegistry
from repro.obs.tracing import Tracer

#: Schema identifier stamped on JSON metric snapshots.
SNAPSHOT_SCHEMA = "repro.obs.metrics/v1"


def _fmt(value: float) -> str:
    """Prometheus-style number rendering (integers without a dot)."""
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(names: Tuple[str, ...], values: Tuple[str, ...],
               extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    pairs += [f'{n}="{_escape_label(v)}"' for n, v in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _render_family(family: MetricFamily, lines: List[str]) -> None:
    if family.help:
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
    lines.append(f"# TYPE {family.name} {family.kind}")
    for values, instrument in family.samples():
        labels = _label_str(family.label_names, values)
        if isinstance(instrument, Histogram):
            cumulative = instrument.cumulative_counts()
            for bound, count in zip(instrument.bounds, cumulative):
                bucket = _label_str(family.label_names, values,
                                    extra=(("le", _fmt(bound)),))
                lines.append(f"{family.name}_bucket{bucket} {int(count)}")
            inf_bucket = _label_str(family.label_names, values,
                                    extra=(("le", "+Inf"),))
            lines.append(
                f"{family.name}_bucket{inf_bucket} {instrument.count}")
            lines.append(
                f"{family.name}_sum{labels} {_fmt(instrument.sum)}")
            lines.append(f"{family.name}_count{labels} {instrument.count}")
        else:
            lines.append(f"{family.name}{labels} {_fmt(instrument.value)}")


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.families():
        _render_family(family, lines)
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot(registry: MetricsRegistry) -> Dict:
    """The registry as a JSON-able snapshot document."""
    metrics: Dict[str, Dict] = {}
    for family in registry.families():
        samples = []
        for values, instrument in family.samples():
            labels = dict(zip(family.label_names, values))
            if isinstance(instrument, Histogram):
                samples.append({
                    "labels": labels,
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "buckets": {_fmt(b): int(c) for b, c in
                                zip(instrument.bounds,
                                    instrument.cumulative_counts())},
                })
            else:
                samples.append({"labels": labels,
                                "value": instrument.value})
        metrics[family.name] = {
            "kind": family.kind,
            "help": family.help,
            "label_names": list(family.label_names),
            "samples": samples,
        }
    return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}


def write_metrics(path: Union[str, Path],
                  registry: MetricsRegistry) -> Path:
    """Write the registry to ``path``.

    ``.json`` paths get the JSON snapshot; anything else (the
    conventional ``.prom``) gets the Prometheus text format.
    """
    path = Path(path)
    if path.suffix == ".json":
        atomic_write_text(path, json.dumps(snapshot(registry), indent=2,
                                           default=str) + "\n")
    else:
        atomic_write_text(path, render_prometheus(registry))
    return path


def _chrome_events(span_doc: Dict, pid: int, events: List[Dict]) -> None:
    """Events for one exported (``Span.to_dict``) subtree under ``pid``."""
    args = dict(span_doc.get("attributes") or {})
    if "sim_start_s" in span_doc:
        args["sim_start_s"] = span_doc["sim_start_s"]
        if "sim_duration_s" in span_doc:
            args["sim_duration_s"] = span_doc["sim_duration_s"]
    event = {
        "name": span_doc["name"],
        "ph": "X",
        "ts": round(units.s_to_us(span_doc.get("start_s", 0.0)), 3),
        "dur": round(units.s_to_us(span_doc.get("duration_s", 0.0)), 3),
        "pid": pid,
        "tid": 1,
        "cat": "netpower",
    }
    if args:
        event["args"] = args
    events.append(event)
    for child in span_doc.get("children", ()):
        _chrome_events(child, pid, events)


def _process_label(process: Dict, index: int) -> str:
    """A human-readable row name for a stitched subtrace."""
    if not process:
        return f"subtrace {index}"
    parts = [f"{key}={process[key]}" for key in sorted(process)]
    return " ".join(parts)


def chrome_trace(tracer: Tracer) -> Dict:
    """The span tree as a Chrome trace-event document.

    Complete (``ph: "X"``) events with microsecond timestamps relative
    to the trace origin, loadable in Perfetto or ``chrome://tracing``.
    Span attributes and the simulated-clock readings ride along in each
    event's ``args``.  Counter tracks attached by instruments (e.g. the
    energy ledger's per-component fleet watts) are emitted as ``ph:
    "C"`` events under a second process whose clock is the *simulated*
    time in seconds (rendered as microseconds), keeping the two time
    bases visually separate.  Stitched worker subtraces (see
    :class:`~repro.obs.tracing.Tracer`) render as additional ``pid``
    rows, one per subtrace, named from their ``process`` labels.
    """
    document = tracer.to_dict()
    events: List[Dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "tid": 1,
        "args": {"name": "netpower"},
    }]
    for span_doc in document["spans"]:
        _chrome_events(span_doc, 1, events)
    tracks = document.get("counter_tracks", ())
    if tracks:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": 2,
            "tid": 1,
            "args": {"name": "simulation (sim-time axis)"},
        })
        for track in tracks:
            for t_s, value in zip(track["t_s"], track["values"]):
                events.append({
                    "name": track["name"],
                    "ph": "C",
                    "ts": round(units.s_to_us(t_s), 3),
                    "pid": 2,
                    "cat": "netpower",
                    "args": {"value": value},
                })
    for index, subtrace in enumerate(document.get("subtraces", ())):
        pid = 3 + index
        process = subtrace.get("process") or {}
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "args": {"name": _process_label(process, index)},
        })
        for span_doc in subtrace.get("spans", ()):
            _chrome_events(span_doc, pid, events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace(path: Union[str, Path], tracer: Tracer) -> Path:
    """Write the tracer's span tree to ``path`` as JSON.

    Paths ending in ``.trace.json`` get Chrome trace-event format (for
    Perfetto); anything else gets the native span-tree document.
    """
    path = Path(path)
    if path.name.endswith(".trace.json"):
        document = json.dumps(chrome_trace(tracer), indent=2, default=str)
    else:
        document = tracer.to_json()
    atomic_write_text(path, document + "\n")
    return path


def folded(tracer: Tracer) -> str:
    """Folded-stack flamegraph text (``a;b;c <self-microseconds>``).

    One line per unique span stack, sorted, with integer microsecond
    self-time weights -- the input format of ``flamegraph.pl`` and
    compatible renderers.
    """
    lines = [f"{';'.join(path['stack'])} "
             f"{int(round(units.s_to_us(path['self_s'])))}"
             for path in tracer.profile_dict()["paths"]]
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope(tracer: Tracer) -> Dict:
    """The profile as a speedscope ``sampled`` document.

    Each unique span stack becomes one sample weighted by its self time
    in microseconds (https://www.speedscope.app/).
    """
    paths = tracer.profile_dict()["paths"]
    frame_names = sorted({name for path in paths for name in path["stack"]})
    index = {name: i for i, name in enumerate(frame_names)}
    samples = [[index[name] for name in path["stack"]] for path in paths]
    weights = [round(units.s_to_us(path["self_s"]), 3) for path in paths]
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": [{"name": n} for n in frame_names]},
        "profiles": [{
            "type": "sampled",
            "name": "netpower kernels",
            "unit": "microseconds",
            "startValue": 0,
            "endValue": round(sum(weights), 3),
            "samples": samples,
            "weights": weights,
        }],
        "exporter": "netpower",
    }


def write_profile(path: Union[str, Path], tracer: Tracer) -> Path:
    """Write the tracer's profile aggregate to ``path``.

    ``.folded`` paths get flamegraph folded-stack text;
    ``.speedscope.json`` paths get speedscope JSON; anything else gets
    the native ``repro.obs.profile/v1`` document.
    """
    path = Path(path)
    if path.suffix == ".folded":
        atomic_write_text(path, folded(tracer))
    else:
        document = (speedscope(tracer)
                    if path.name.endswith(".speedscope.json")
                    else tracer.profile_dict())
        atomic_write_text(path, json.dumps(document, indent=2,
                                           default=str) + "\n")
    return path
