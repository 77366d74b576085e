"""Spans: the one timed-region primitive, with a profile and a timeline.

``with span("kernel.wall_power"): ...`` opens a span on the active
:class:`Tracer`.  Spans nest through an explicit stack, and every closed
span feeds two views of the same measurement:

* **profile** -- a fixed-memory aggregate, always kept.  Per name it
  tracks calls, cumulative and *self* wall time (cumulative minus time
  spent in nested spans) and a log-spaced per-call duration histogram;
  per unique span stack it tracks self time for folded flamegraphs.
  Nothing per call is retained, and names are string literals by
  convention (enforced by the ``NP-OBS-001`` check rule), bounding
  cardinality; :data:`MAX_KERNELS` caps it regardless.
* **timeline** -- the span tree itself, kept only by a tracer built with
  ``timeline=True``.  Each :class:`Span` carries its attributes, its
  children, and two clocks: wall-clock ``time.perf_counter`` readings,
  exported as offsets from the trace origin, and optionally the
  simulated clock (pass ``sim_clock=<zero-arg callable>`` and the span
  samples it at enter and exit, e.g. the fleet simulation's
  ``clock_s``).

Tracing is disabled by default: the module-level :func:`span` helper
returns a shared no-op context until :func:`set_tracer` installs a
tracer (``--trace-out`` or ``--profile-out`` do this in the CLI),
keeping instrumented code zero-cost in normal runs.  Spans only *time*
code; wall readings live in the exports, never in seeded computation.

Exports: the ``repro.obs.trace/v2`` span tree (:meth:`Tracer.to_dict`),
the ``repro.obs.profile/v1`` aggregate (:meth:`Tracer.profile_dict`) and
the ``netpower_profile_*`` metric families
(:meth:`Tracer.publish_metrics`); :mod:`repro.obs.export` renders the
Chrome trace, folded-stack and speedscope formats and writes files.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs import metrics

#: Schema identifier stamped on exported trace documents.
TRACE_SCHEMA = "repro.obs.trace/v2"
#: Schema identifier stamped on exported profile documents.
PROFILE_SCHEMA = "repro.obs.profile/v1"

#: Log-spaced per-call duration bucket bounds in seconds (1 us .. 10 s).
CALL_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: Safety cap on distinct span names in the profile; hitting it means
#: somebody built names dynamically (which NP-OBS-001 exists to
#: prevent), and further names collapse into this bucket instead of
#: growing memory.
MAX_KERNELS = 256
OVERFLOW_KERNEL = "(other)"

_CALLS = metrics.counter(
    "netpower_profile_calls_total",
    "Span entries per profiled name.", labels=("kernel",))
_SECONDS = metrics.counter(
    "netpower_profile_seconds_total",
    "Cumulative wall seconds per profiled name (children included).",
    labels=("kernel",))
_SELF_SECONDS = metrics.counter(
    "netpower_profile_self_seconds_total",
    "Self wall seconds per profiled name (children excluded).",
    labels=("kernel",))
_CALL_SECONDS = metrics.histogram(
    "netpower_profile_call_seconds",
    "Per-call wall-time distribution per profiled name.",
    labels=("kernel",), buckets=CALL_BUCKETS)


class _SpanStat:
    """Accumulated profile statistics for one span name."""

    __slots__ = ("calls", "cum_s", "self_s", "bucket_counts")

    def __init__(self) -> None:
        self.calls = 0
        self.cum_s = 0.0
        self.self_s = 0.0
        #: One slot per finite bound plus the +Inf overflow slot.
        self.bucket_counts = [0] * (len(CALL_BUCKETS) + 1)


class Span:
    """One timed operation; the context manager that opens and closes it.

    Obtain spans from :meth:`Tracer.span` or the module-level
    :func:`span`; entering pushes the span on its tracer's stack and
    exiting folds its duration into the tracer's profile.
    """

    __slots__ = ("name", "attributes", "children", "wall_start", "wall_end",
                 "sim_start_s", "sim_end_s", "_tracer", "_sim_clock",
                 "_child_s")

    def __init__(self, name: str, attributes: Dict, tracer: "Tracer",
                 sim_clock: Optional[Callable[[], float]] = None):
        self.name = name
        self.attributes = attributes
        self.children: List[Span] = []
        self.wall_start: Optional[float] = None
        self.wall_end: Optional[float] = None
        self.sim_start_s: Optional[float] = None
        self.sim_end_s: Optional[float] = None
        self._tracer = tracer
        self._sim_clock = sim_clock
        #: Wall seconds spent in closed child spans (for self time).
        self._child_s = 0.0

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self.wall_start = time.perf_counter()
        if self._sim_clock is not None:
            self.sim_start_s = float(self._sim_clock())
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        end = time.perf_counter()
        self.wall_end = end
        clock = self._sim_clock
        if clock is not None:
            self.sim_end_s = float(clock())
            # A closed span holds no callable, so a finished tracer
            # pickles (sweep workers ship theirs home).
            self._sim_clock = None
        if exc is not None:
            self.attributes.setdefault(
                "error", f"{type(exc).__name__}: {exc}")
        self._tracer._close(end - self.wall_start)
        return False

    def set_attribute(self, key: str, value: object) -> None:
        """Attach or overwrite one attribute on the span."""
        self.attributes[key] = value

    @property
    def duration_s(self) -> float:
        """Wall-clock duration (up to now if the span is still open)."""
        if self.wall_start is None:
            return 0.0
        end = (self.wall_end if self.wall_end is not None
               else time.perf_counter())
        return end - self.wall_start

    def to_dict(self, origin: float) -> Dict:
        """JSON-able form with wall times relative to ``origin``."""
        doc: Dict = {
            "name": self.name,
            "start_s": round((self.wall_start or origin) - origin, 9),
            "duration_s": round(self.duration_s, 9),
        }
        if self.sim_start_s is not None:
            doc["sim_start_s"] = self.sim_start_s
            if self.sim_end_s is not None:
                doc["sim_duration_s"] = self.sim_end_s - self.sim_start_s
        if self.attributes:
            doc["attributes"] = dict(self.attributes)
        if self.children:
            doc["children"] = [c.to_dict(origin) for c in self.children]
        return doc


class Tracer:
    """Collects the spans of one run (single-threaded).

    The profile aggregate is always kept; the span tree (``roots``) only
    with ``timeline=True``.  A tracer may also carry *subtraces*: trace
    documents of tracers from other processes (sweep workers) stitched
    in by :meth:`merge`, each labelled with its origin via the
    ``process`` block.  The Chrome exporter renders every subtrace as
    its own ``pid`` row so a multi-worker sweep reads as one timeline.
    """

    def __init__(self, trace_id: Optional[str] = None,
                 process: Optional[Dict] = None, timeline: bool = True):
        #: Stable identifier shared by a parent trace and the worker
        #: subtraces stitched into it (``None`` for standalone traces).
        self.trace_id = trace_id
        #: Labels identifying the producing process, e.g.
        #: ``{"worker": 2, "os_pid": 1234, "job": "synth-200/..."}``.
        self.process: Dict = dict(process or {})
        #: Whether closed spans stay in the ``roots`` tree.
        self.timeline = timeline
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: Profile names of the open spans, root first (the stack key).
        self._path: List[str] = []
        self._stats: Dict[str, _SpanStat] = {}
        #: Per unique span stack: ``[self_s, calls]``.
        self._paths: Dict[Tuple[str, ...], List] = {}
        #: Counter-track series attached by instruments (e.g. the energy
        #: ledger): ``{"name", "t_s", "values"}`` dicts that the Chrome
        #: trace exporter renders as ``ph: "C"`` counter events.
        self.counter_tracks: List[Dict] = []
        #: Trace documents (``Tracer.to_dict`` output) captured in other
        #: processes, stitched in by :meth:`merge`.
        self.subtraces: List[Dict] = []
        #: Origin fallback when no root span ever closed: without this,
        #: counter tracks or subtraces added to an otherwise span-less
        #: tracer would export absolute ``perf_counter`` offsets.
        self.created_at = time.perf_counter()

    def span(self, name: str,
             sim_clock: Optional[Callable[[], float]] = None,
             **attributes: object) -> Span:
        """Open a span; nests under the innermost open span."""
        return Span(name, attributes, self, sim_clock)

    # -- hot path -----------------------------------------------------------

    def _open(self, span: Span) -> None:
        stack = self._stack
        if self.timeline:
            (stack[-1].children if stack else self.roots).append(span)
        stack.append(span)
        name = span.name
        if name not in self._stats and len(self._stats) >= MAX_KERNELS:
            name = OVERFLOW_KERNEL
        self._path.append(name)

    def _close(self, duration: float) -> None:
        stack = self._stack
        span = stack.pop()
        if stack:
            stack[-1]._child_s += duration
        key = tuple(self._path)
        name = self._path.pop()
        self_s = duration - span._child_s
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = _SpanStat()
        stat.calls += 1
        stat.cum_s += duration
        stat.self_s += self_s
        stat.bucket_counts[bisect_left(CALL_BUCKETS, duration)] += 1
        path_stat = self._paths.get(key)
        if path_stat is None:
            if len(self._paths) < 4 * MAX_KERNELS:
                self._paths[key] = [self_s, 1]
        else:
            path_stat[0] += self_s
            path_stat[1] += 1

    def merge(self, other: "Tracer") -> None:
        """Fold a finished tracer from another run into this one.

        Profile totals add up, and ``other``'s stacks keep their own
        roots.  When both tracers keep a timeline, ``other``'s trace
        document is stitched in as a subtrace.  The sweep runner merges
        its per-job tracers this way in sorted job-key order; the bench
        merges each timed run's profile-only tracer.
        """
        for name, stat in other._stats.items():
            mine = self._stats.get(name)
            if mine is None:
                mine = self._stats[name] = _SpanStat()
            mine.calls += stat.calls
            mine.cum_s += stat.cum_s
            mine.self_s += stat.self_s
            mine.bucket_counts = [
                a + b for a, b in zip(mine.bucket_counts,
                                      stat.bucket_counts)]
        for key, path_stat in other._paths.items():
            mine_path = self._paths.get(key)
            if mine_path is None:
                self._paths[key] = [path_stat[0], path_stat[1]]
            else:
                mine_path[0] += path_stat[0]
                mine_path[1] += path_stat[1]
        if self.timeline and other.timeline:
            self.subtraces.append(other.to_dict())

    # -- exports ------------------------------------------------------------

    def to_dict(self) -> Dict:
        """The timeline as a JSON-able trace document.

        Wall times are offsets from the trace origin: the earliest root
        span start, falling back to the tracer's creation time when no
        root span has started (never the absolute ``perf_counter``
        epoch).  Counter tracks and stitched subtraces are included so
        the ``.json`` and ``.trace.json`` exports carry the same data.
        """
        origin = min((s.wall_start for s in self.roots
                      if s.wall_start is not None),
                     default=self.created_at)
        doc: Dict = {
            "schema": TRACE_SCHEMA,
            "spans": [s.to_dict(origin) for s in self.roots],
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        if self.process:
            doc["process"] = dict(self.process)
        if self.counter_tracks:
            doc["counter_tracks"] = [dict(t) for t in self.counter_tracks]
        if self.subtraces:
            doc["subtraces"] = [dict(t) for t in self.subtraces]
        return doc

    def to_json(self, indent: int = 2) -> str:
        """The trace document rendered as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def profile_dict(self) -> Dict:
        """The profile as a sorted, JSON-able document.

        Name and stack ordering is deterministic (sorted); the timing
        *values* are wall-clock measurements and vary run to run.
        """
        kernels = {
            name: {
                "calls": stat.calls,
                "cum_s": round(stat.cum_s, 9),
                "self_s": round(stat.self_s, 9),
                "bucket_counts": list(stat.bucket_counts),
            }
            for name, stat in sorted(self._stats.items())
        }
        paths = [
            {"stack": list(stack), "calls": stat[1],
             "self_s": round(stat[0], 9)}
            for stack, stat in sorted(self._paths.items())
        ]
        return {
            "schema": PROFILE_SCHEMA,
            "bucket_bounds_s": list(CALL_BUCKETS),
            "kernels": kernels,
            "paths": paths,
        }

    def publish_metrics(self) -> None:
        """Publish the profile totals into the active metrics registry.

        Call once, at export time: totals are *added* to the
        ``netpower_profile_*`` families, so repeated calls double-count.
        No-op while metrics are disabled.
        """
        if not metrics.enabled():
            return
        for name, stat in sorted(self._stats.items()):
            _CALLS.labels(kernel=name).inc(stat.calls)
            _SECONDS.labels(kernel=name).inc(stat.cum_s)
            _SELF_SECONDS.labels(kernel=name).inc(stat.self_s)
            hist = _CALL_SECONDS.labels(kernel=name)
            if isinstance(hist, metrics.Histogram):
                # Bucket-exact transfer: the profile bins with the same
                # bounds the metric family declares.
                hist.bucket_counts += stat.bucket_counts
                hist.sum += stat.cum_s
                hist.count += stat.calls


# ---------------------------------------------------------------------------
# The active tracer and the zero-cost disabled path
# ---------------------------------------------------------------------------


class _NullSpan:
    """Stands in for a Span while tracing is disabled.

    One shared instance is also its own reusable, reentrant no-op
    context manager.
    """

    __slots__ = ()
    name = ""
    attributes: Dict = {}
    children: List = []
    duration_s = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attribute(self, key: str, value: object) -> None:
        pass


NULL_SPAN = _NullSpan()

_active: Optional[Tracer] = None


def enabled() -> bool:
    """Whether a real tracer is installed."""
    return _active is not None


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` while tracing is disabled."""
    return _active


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or clear, with ``None``) the active tracer.

    Returns the previously active tracer so callers can restore it.
    """
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Scope ``tracer`` as the active one for a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, sim_clock: Optional[Callable[[], float]] = None,
         **attributes: object) -> Union[Span, _NullSpan]:
    """Open a span on the active tracer, or a shared no-op when disabled.

    The disabled path hands back :data:`NULL_SPAN`, which duck-types
    :class:`Span` and is its own context manager.
    """
    tracer = _active
    if tracer is None:
        return NULL_SPAN
    return Span(name, attributes, tracer, sim_clock)
