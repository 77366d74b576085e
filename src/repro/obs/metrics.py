"""Label-aware metric instruments and the registry that collects them.

The design follows the Prometheus client-library model -- Counter /
Gauge / Histogram families, each optionally split by label values --
with one twist that matters for a simulation codebase: **instrumentation
is free when nobody is looking**.  Modules declare instruments at import
time as :class:`InstrumentHandle` objects; a handle only materialises a
real instrument when a :class:`MetricsRegistry` has been installed via
:func:`set_registry` (the CLI does this for ``--metrics-out``).  With no
registry active every handle method resolves to a shared no-op, so the
vectorized simulation hot path pays a single attribute check per call
site -- and the hot loops batch their observations through
:meth:`Histogram.observe_many` besides.

Observability never perturbs determinism: instruments only *read*
values handed to them; they never draw randomness and never feed back
into the simulation.  Wall-clock readings live only in metric values,
segregated from every seeded result.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Prometheus-compatible metric and label name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds-flavoured, Prometheus defaults).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class _NoopInstrument:
    """Shared do-nothing instrument returned while metrics are disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def labels(self, **label_values) -> "_NoopInstrument":
        return self


NOOP = _NoopInstrument()


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.value -= amount


class Histogram:
    """A distribution: bucket counts (``le`` semantics), sum, and count.

    ``observe_many`` takes any array-like and bins it with one
    ``np.searchsorted`` -- the batched entry point the simulation engines
    use so per-step latency tracking stays off the Python hot path.
    """

    __slots__ = ("bounds", "_edges", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not np.isfinite(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite, got {bounds}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {bounds}")
        self.bounds = bounds
        self._edges = np.asarray(bounds)
        #: One slot per finite bound plus the +Inf overflow slot.
        self.bucket_counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        self.sum += v
        self.count += 1
        # side="left": a value equal to a bound lands in that bound's
        # bucket, matching Prometheus' v <= le.
        self.bucket_counts[np.searchsorted(self._edges, v, side="left")] += 1

    def observe_many(self, values: "np.typing.ArrayLike") -> None:
        """Record an array-like of observations in one binning pass."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        self.sum += float(arr.sum())
        self.count += int(arr.size)
        idx = np.searchsorted(self._edges, arr, side="left")
        self.bucket_counts += np.bincount(
            idx, minlength=len(self.bounds) + 1)

    def cumulative_counts(self) -> np.ndarray:
        """Cumulative bucket counts in ``le`` order (last == count)."""
        return np.cumsum(self.bucket_counts)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: Anything a family or handle can hand back to instrumented code.
Instrument = Union[Counter, Gauge, Histogram, _NoopInstrument]

#: Schema identifier on mergeable registry state documents (the
#: cross-process form the sweep runner ships worker metrics home in).
STATE_SCHEMA = "repro.obs.metrics.state/v1"


class MetricFamily:
    """All instruments of one name, split by label values."""

    def __init__(self, kind: str, name: str, help: str,
                 label_names: Tuple[str, ...] = (),
                 buckets: Optional[Tuple[float, ...]] = None):
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names = label_names
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **label_values: object) -> Instrument:
        """The instrument for one combination of label values."""
        extra = set(label_values) - set(self.label_names)
        missing = set(self.label_names) - set(label_values)
        if extra or missing:
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, got "
                f"{tuple(sorted(label_values))}")
        key = tuple(str(label_values[n]) for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = (Histogram(self.buckets or DEFAULT_BUCKETS)
                     if self.kind == "histogram" else _KINDS[self.kind]())
            self._children[key] = child
        return child

    def default(self) -> Instrument:
        """The single unlabeled instrument (only for label-less families)."""
        if self.label_names:
            raise ValueError(
                f"{self.name} is labeled by {self.label_names}; "
                f"use .labels(...)")
        return self.labels()

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label values, instrument) pairs in insertion order."""
        return list(self._children.items())


class MetricsRegistry:
    """Holds metric families and hands out their instruments.

    One registry corresponds to one export target (a ``--metrics-out``
    file, a test assertion).  Families are created on first use and are
    idempotent: asking again with the same (kind, name, labels) returns
    the existing family, while conflicting re-registration raises.
    """

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, kind: str, name: str, help: str = "",
                label_names: Sequence[str] = (),
                buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        label_names = tuple(label_names)
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"metric {name} already registered as {family.kind}"
                    f"{family.label_names}, cannot re-register as "
                    f"{kind}{label_names}")
            return family
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name}")
        family = MetricFamily(
            kind, name, help, label_names,
            tuple(buckets) if buckets is not None else None)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        """The counter family ``name``, created on first use."""
        return self._family("counter", name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        """The gauge family ``name``, created on first use."""
        return self._family("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        """The histogram family ``name``, created on first use."""
        return self._family("histogram", name, help, labels, buckets)

    def families(self) -> List[MetricFamily]:
        """All families, sorted by metric name."""
        return [self._families[n] for n in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family called ``name``, or ``None``."""
        return self._families.get(name)

    # -- mergeable state (cross-process aggregation) -----------------------------

    def snapshot_state(self) -> Dict:
        """The registry as a plain, JSON/pickle-able state document.

        Unlike :func:`repro.obs.export.snapshot` (a read-only report),
        this form round-trips: :meth:`from_state` rebuilds identical
        instruments from it and :meth:`merge_state` folds one registry's
        state into another -- the contract worker processes use to ship
        their per-job metrics back to the sweep parent.
        """
        families = {}
        for family in self.families():
            samples = []
            for values, instrument in family.samples():
                sample: Dict = {"labels": list(values)}
                if isinstance(instrument, Histogram):
                    sample["bucket_counts"] = [
                        int(c) for c in instrument.bucket_counts]
                    sample["sum"] = instrument.sum
                    sample["count"] = instrument.count
                else:
                    sample["value"] = instrument.value
                samples.append(sample)
            families[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "buckets": (list(family.buckets)
                            if family.buckets is not None else None),
                "samples": samples,
            }
        return {"schema": STATE_SCHEMA, "families": families}

    def merge_state(self, state: Dict) -> None:
        """Fold another registry's :meth:`snapshot_state` into this one.

        Counters and histograms are *additive* (values, bucket counts,
        sums, and counts accumulate); gauges are *last-writer-wins* (the
        incoming value replaces the local one -- they report instants,
        not totals).  Families missing here are created; kind, label, or
        bucket conflicts raise, exactly like a live re-registration.
        """
        if state.get("schema") != STATE_SCHEMA:
            raise ValueError(
                f"cannot merge metrics state with schema "
                f"{state.get('schema')!r}; expected {STATE_SCHEMA!r}")
        for name, data in state["families"].items():
            family = self._family(
                data["kind"], name, data.get("help", ""),
                tuple(data.get("label_names", ())),
                data.get("buckets"))
            if (family.kind == "histogram"
                    and data.get("buckets") is not None
                    and tuple(family.buckets or DEFAULT_BUCKETS)
                    != tuple(data["buckets"])):
                raise ValueError(
                    f"metric {name}: cannot merge histogram with buckets "
                    f"{data['buckets']} into {list(family.buckets or ())}")
            for sample in data["samples"]:
                instrument = family.labels(
                    **dict(zip(family.label_names, sample["labels"])))
                if family.kind == "counter":
                    instrument.inc(sample["value"])
                elif family.kind == "gauge":
                    instrument.set(sample["value"])
                else:
                    counts = np.asarray(sample["bucket_counts"],
                                        dtype=np.int64)
                    if counts.shape != instrument.bucket_counts.shape:
                        raise ValueError(
                            f"metric {name}: bucket count mismatch "
                            f"({counts.size} vs "
                            f"{instrument.bucket_counts.size})")
                    instrument.bucket_counts += counts
                    instrument.sum += float(sample["sum"])
                    instrument.count += int(sample["count"])

    @classmethod
    def from_state(cls, state: Dict) -> "MetricsRegistry":
        """A new registry holding exactly the instruments in ``state``."""
        registry = cls()
        registry.merge_state(state)
        return registry

    def register_declared(self) -> None:
        """Materialise every declared handle's family in this registry.

        Unlabeled families also get their single instrument created, so
        never-touched counters still export an explicit ``0`` -- the
        scrape-side convention that distinguishes "nothing happened"
        from "nothing was measured".
        """
        for handle in _DECLARED.values():
            family = self._family(handle.kind, handle.name, handle.help,
                                  handle.label_names, handle.buckets)
            if not family.label_names:
                family.default()


# ---------------------------------------------------------------------------
# The active registry and the declared-instrument catalog
# ---------------------------------------------------------------------------

_active: Optional[MetricsRegistry] = None
_DECLARED: Dict[str, "InstrumentHandle"] = {}


def enabled() -> bool:
    """Whether a real registry is installed (hot paths gate on this)."""
    return _active is not None


def get_registry() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` while metrics are disabled."""
    return _active


def set_registry(registry: Optional[MetricsRegistry],
                 ) -> Optional[MetricsRegistry]:
    """Install (or clear, with ``None``) the active registry.

    Returns the previously active registry so callers can restore it.
    """
    global _active
    previous = _active
    _active = registry
    if registry is not None:
        registry.register_declared()
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry],
                 ) -> Iterator[Optional[MetricsRegistry]]:
    """Scope ``registry`` as the active one for a ``with`` block."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


class InstrumentHandle:
    """A module-level instrument declaration, resolved lazily per call.

    Handles are what instrumented code holds: they survive registry
    swaps, cost one ``None`` check when metrics are off, and register
    themselves in the catalog so freshly installed registries export the
    full instrument surface (see :meth:`MetricsRegistry.register_declared`).
    """

    __slots__ = ("kind", "name", "help", "label_names", "buckets")

    def __init__(self, kind: str, name: str, help: str,
                 label_names: Tuple[str, ...],
                 buckets: Optional[Tuple[float, ...]] = None):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        existing = _DECLARED.get(name)
        if existing is not None and (existing.kind != kind
                                     or existing.label_names != label_names):
            raise ValueError(
                f"instrument {name} already declared as {existing.kind}"
                f"{existing.label_names}")
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names = label_names
        self.buckets = buckets
        _DECLARED[name] = self

    def _resolved(self):
        registry = _active
        if registry is None:
            return None
        return registry._family(self.kind, self.name, self.help,
                                self.label_names, self.buckets)

    def labels(self, **label_values: object) -> Instrument:
        """The live instrument for these labels, or the shared no-op."""
        family = self._resolved()
        return NOOP if family is None else family.labels(**label_values)

    # Unlabeled conveniences: no-ops while disabled, else the default child.

    def inc(self, amount: float = 1.0) -> None:
        """Increment the default child (no-op while disabled)."""
        family = self._resolved()
        if family is not None:
            family.default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the default child (no-op while disabled)."""
        family = self._resolved()
        if family is not None:
            family.default().dec(amount)

    def set(self, value: float) -> None:
        """Set the default child gauge (no-op while disabled)."""
        family = self._resolved()
        if family is not None:
            family.default().set(value)

    def observe(self, value: float) -> None:
        """Observe into the default child (no-op while disabled)."""
        family = self._resolved()
        if family is not None:
            family.default().observe(value)

    def observe_many(self, values: "np.typing.ArrayLike") -> None:
        """Batch-observe into the default child (no-op while disabled)."""
        family = self._resolved()
        if family is not None:
            family.default().observe_many(values)


def counter(name: str, help: str = "",
            labels: Sequence[str] = ()) -> InstrumentHandle:
    """Declare a counter instrument (module scope; resolved lazily)."""
    return InstrumentHandle("counter", name, help, tuple(labels))


def gauge(name: str, help: str = "",
          labels: Sequence[str] = ()) -> InstrumentHandle:
    """Declare a gauge instrument (module scope; resolved lazily)."""
    return InstrumentHandle("gauge", name, help, tuple(labels))


def histogram(name: str, help: str = "", labels: Sequence[str] = (),
              buckets: Optional[Sequence[float]] = None) -> InstrumentHandle:
    """Declare a histogram instrument (module scope; resolved lazily)."""
    return InstrumentHandle("histogram", name, help, tuple(labels),
                            tuple(buckets) if buckets is not None else None)
