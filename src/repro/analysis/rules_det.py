"""NP-DET: determinism rules.

The simulation, sweep, and monitoring packages promise byte-identical
reports for a given seed, across engines, worker counts, shards, and
resumes (docs/SWEEP.md).  These rules catch the two ways that promise
silently rots: ambient entropy (wall clocks, process-global RNGs) and
iteration over hash-ordered sets.

They fire only inside the deterministic packages
(:attr:`~repro.analysis.engine.CheckConfig.det_packages`); wall-clock
reads are additionally sanctioned in the timing-path allowlist.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import (NodeIndex, dotted_name,
                                    is_set_expression)
from repro.analysis.engine import FileContext, RawFinding, rule
from repro.analysis.findings import Severity

#: Fully-dotted callables that read the wall clock.
_WALLCLOCK = frozenset((
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
))

#: Trailing attributes that read the wall clock on datetime objects.
_DATETIME_READS = frozenset(("now", "utcnow", "today"))

#: numpy.random attributes that are *not* the legacy global-state API.
_NUMPY_SEEDED_OK = frozenset((
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "MT19937", "SFC64", "BitGenerator",
))


@rule("NP-DET-001", Severity.ERROR,
      "wall-clock read outside the sanctioned timing paths")
def check_wallclock(context: FileContext) -> Iterator[RawFinding]:
    """Flag ``time.time()``-style calls in deterministic code.

    Wall-clock values leaking into reports break worker-count and
    resume invariance; timing belongs in the bench side-channel
    (``bench.py``, ``sweep/runner.py``) or the tracer.
    """
    if not context.in_det_scope or context.wallclock_allowed:
        return
    for node in context.index.of_type(ast.Call):
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if name in _WALLCLOCK:
            yield (node.lineno, node.col_offset,
                   f"wall-clock call {name}() in deterministic code; "
                   f"route timings through the bench side-channel or "
                   f"obs.tracing")
        elif parts[-1] in _DATETIME_READS and any(
                p in ("datetime", "date") for p in parts[:-1]):
            yield (node.lineno, node.col_offset,
                   f"wall-clock call {name}() in deterministic code; "
                   f"pass timestamps in explicitly")


@rule("NP-DET-002", Severity.ERROR,
      "ambient (unseeded, process-global) randomness")
def check_ambient_rng(context: FileContext) -> Iterator[RawFinding]:
    """Flag global-state RNGs in deterministic code.

    Only explicitly seeded generators (``numpy.random.default_rng``)
    keep runs reproducible; ``random.*`` module functions, the legacy
    ``numpy.random.*`` global API, ``os.urandom``, ``uuid.uuid1/4``,
    and ``secrets`` all draw from ambient process state.
    """
    if not context.in_det_scope:
        return
    for node in context.index.of_type(ast.Call):
        name = dotted_name(node.func)
        if name is None:
            continue
        message = None
        if name.startswith("random.") or name.startswith("secrets."):
            message = (f"{name}() draws from process-global state; use "
                       f"an explicitly seeded numpy Generator")
        elif name == "os.urandom" or name in ("uuid.uuid1", "uuid.uuid4"):
            message = (f"{name}() is non-deterministic; derive ids from "
                       f"the run's seed instead")
        elif name.startswith(("np.random.", "numpy.random.")):
            attr = name.rsplit(".", 1)[1]
            if attr not in _NUMPY_SEEDED_OK:
                message = (f"legacy global-state API {name}(); use "
                           f"numpy.random.default_rng(seed) and pass "
                           f"the Generator down")
        if message is not None:
            yield node.lineno, node.col_offset, message


def _iteration_sites(index: NodeIndex) -> Iterator[ast.expr]:
    """Every expression iterated by a ``for`` or a comprehension."""
    for node in index.of_type(ast.For, ast.AsyncFor, ast.ListComp,
                              ast.SetComp, ast.DictComp, ast.GeneratorExp):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter


@rule("NP-DET-003", Severity.ERROR,
      "iteration over a set in hash order")
def check_unsorted_set_iteration(
        context: FileContext) -> Iterator[RawFinding]:
    """Flag ``for x in some_set_expression`` without ``sorted()``.

    Set iteration order depends on insertion history and (for strings)
    ``PYTHONHASHSEED``; anything derived from it -- event lists, JSON
    payloads, report rows -- loses byte-identity.  Wrap the iterable
    in ``sorted(...)``.
    """
    if not context.in_det_scope:
        return
    for iterable in _iteration_sites(context.index):
        target = iterable
        if isinstance(target, ast.Call) and \
                isinstance(target.func, ast.Name) and \
                target.func.id == "enumerate" and target.args:
            target = target.args[0]
        if is_set_expression(target):
            yield (target.lineno, target.col_offset,
                   "iterating a set in hash order; wrap the iterable "
                   "in sorted(...) so downstream output is "
                   "deterministic")
