"""NP-OBS: observability naming rules.

Span names are the join keys of the observability stack: trace diffs,
profile comparisons (``netpower bench --compare``), and the
``netpower_profile_*`` metric labels all assume the same code path
produces the same name on every run.  A dynamically built name -- an
f-string over a loop variable, a ``.format()`` call -- silently forks
those keys run to run and unbounds metric cardinality (the tracer's
profile caps distinct names at :data:`repro.obs.tracing.MAX_KERNELS`
and dumps the rest into an overflow bucket).

``NP-OBS-001`` therefore requires the first argument of ``span(...)``
calls -- the one way code opens a timed region -- to be a string
literal.  The ``obs`` implementing module itself is exempt -- its
public helpers forward a ``name`` parameter by design
(:attr:`~repro.analysis.engine.CheckConfig.obs_forwarding_exempt`).
Call sites whose dynamic name is provably low-cardinality (e.g. built
from a closed argparse choice set) may carry a
``# netpower: ignore[NP-OBS-001]`` suppression with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.engine import FileContext, RawFinding, rule
from repro.analysis.findings import Severity

def _describe(node: ast.expr) -> str:
    """A short human label for the offending name expression."""
    if isinstance(node, ast.JoinedStr):
        return "an f-string"
    if isinstance(node, (ast.Name, ast.Attribute)):
        return "a variable"
    if isinstance(node, ast.Call):
        return "a call result"
    if isinstance(node, ast.BinOp):
        return "a computed string"
    return "a dynamic expression"


@rule("NP-OBS-001", Severity.ERROR, "span name is not a string literal")
def check_literal_scope_names(
        context: FileContext) -> Iterator[RawFinding]:
    """Flag ``span(...)`` calls with dynamic names.

    Matches calls whose callable is ``span`` (bare or as the trailing
    attribute of a dotted path, e.g. ``tracing.span`` or
    ``tracer.span``) and whose first positional argument is anything
    other than a plain string constant.  Zero-argument calls are
    ignored -- they are unrelated APIs such as ``re.Match.span()``.
    """
    if context.obs_forwarding_allowed:
        return
    for node in context.index.of_type(ast.Call):
        if not node.args:
            continue
        name = dotted_name(node.func)
        if name is None or name.rsplit(".", 1)[-1] != "span":
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value,
                                                          str):
            continue
        if isinstance(first, ast.Starred):
            first = first.value
        yield (first.lineno, first.col_offset,
               f"span() name is {_describe(first)}; use a string "
               f"literal so trace and profile keys stay stable across "
               f"runs (suppress with a justification if the value is "
               f"provably low-cardinality)")
