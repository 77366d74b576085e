"""NP-MUT: FleetState column writes outside the engine kernels.

The columnar engine's bitwise-equivalence contract (PR 6) holds
because every mutation of a :class:`~repro.network.engine.FleetState`
column funnels through ``patch_routers``/``refresh``: the dirty-host
bookkeeping, cache refresh, and prefix sums all assume they are the
only writers.  A stray ``state.static_w[i] = ...`` from the serve or
telemetry layer silently desynchronises the cached sums and the
object-graph twin, and nothing crashes -- the reports just stop being
bit-equal.

This rule uses the graph's local type inference (annotations plus
constructor assignments) to find writes whose receiver is a
``FleetState``, and flags any outside the allowed engine modules
(:attr:`~repro.analysis.engine.CheckConfig.mut_allow`).  Reads are
fine everywhere; so is rebinding a plain local that happens to hold a
state.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.engine import (ProjectContext, ProjectRawFinding,
                                   project_rule)
from repro.analysis.findings import Severity
from repro.analysis.graph import FunctionInfo, ProjectGraph

_STATE_CLASS = "FleetState"


@project_rule("NP-MUT-001", Severity.ERROR,
              "FleetState column written outside the engine kernels",
              example=("FleetState column 'static_w' written in "
                       "repro.serve.state.FleetService.whatif; column "
                       "mutations must go through patch_routers/"
                       "refresh in network/engine.py"))
def check_state_writes(project: ProjectContext) -> \
        Iterator[ProjectRawFinding]:
    """Flag column stores on ``FleetState`` receivers.

    Both forms count: ``state.col[idx] = v`` (an in-place element
    store) and ``state.col = arr`` (rebinding the column array).
    Methods of ``FleetState`` itself and the files in ``mut_allow``
    are the sanctioned writers.
    """
    graph = project.taint.graph
    allow = project.config.mut_allow
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if fn.node is None or fn.path in allow:
            continue
        if fn.cls is not None and \
                fn.cls.rsplit(".", 1)[-1] == _STATE_CLASS:
            continue
        for column, line, col in _column_writes(graph, fn):
            yield (fn.path, line, col,
                   f"FleetState column '{column}' written in "
                   f"{fn.qualname}; column mutations must go through "
                   f"patch_routers/refresh in network/engine.py")


def _column_writes(graph: ProjectGraph, fn: FunctionInfo) -> \
        Iterator[Tuple[str, int, int]]:
    for stmt in graph.body_nodes(fn, ast.Assign, ast.AugAssign,
                                 ast.AnnAssign):
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            hit = _state_column(graph, fn, target)
            if hit is not None:
                yield hit


def _state_column(graph: ProjectGraph, fn: FunctionInfo,
                  target: ast.expr) -> Optional[Tuple[str, int, int]]:
    """``(column, line, col)`` when a store target hits a FleetState."""
    # state.col[...] = v  -- unwrap the subscript to the attribute.
    if isinstance(target, ast.Subscript):
        target = target.value  # type: ignore[assignment]
    if not isinstance(target, ast.Attribute):
        return None
    receiver = _expr_class(graph, fn, target.value)
    if receiver is None or \
            receiver.rsplit(".", 1)[-1] != _STATE_CLASS:
        return None
    return target.attr, target.lineno, target.col_offset


def _expr_class(graph: ProjectGraph, fn: FunctionInfo,
                node: ast.expr) -> Optional[str]:
    """The project class an expression holds, via local inference."""
    if isinstance(node, ast.Name):
        return fn.local_types.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _expr_class(graph, fn, node.value)
        if owner is not None:
            info = graph.classes.get(owner)
            if info is not None:
                return info.attr_types.get(node.attr)
    return None
