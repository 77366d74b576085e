"""NP-ASYNC: event-loop safety for the serve layer.

The query service (PR 9) runs every operator connection as an asyncio
task on one thread.  Three hazards follow, none visible to a per-file
rule:

* **NP-ASYNC-001** -- a blocking call (``time.sleep``, synchronous
  file/socket I/O, ``subprocess``, or a direct ``predict_trace``)
  reachable from an ``async def`` body stalls *every* connection, not
  just the caller.  The blocking summary propagates through sync
  helpers, so ``await``-free laundering through another module is
  still caught; ``run_in_executor`` arguments escape the loop and are
  exempt.
* **NP-ASYNC-002** -- a coroutine called but never awaited silently
  does nothing; a bare ``create_task(...)`` whose handle is dropped
  can be garbage-collected mid-flight.
* **NP-ASYNC-003** -- the same attribute mutated from ``async``
  bodies reachable from two different task entry points interleaves
  at await points.  Cross-task state belongs behind one owner.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.dataflow import blocking_primitive
from repro.analysis.engine import (ProjectContext, ProjectRawFinding,
                                   project_rule)
from repro.analysis.findings import Severity
from repro.analysis.graph import FunctionInfo, ProjectGraph

_SPAWN_TAILS = frozenset(("create_task", "ensure_future"))


@project_rule("NP-ASYNC-001", Severity.ERROR,
              "blocking call reachable from an async def body",
              example=("blocking call on the event loop: "
                       "repro.serve.app.NetpowerServer._load -> "
                       "repro.ioutil.atomic_write_text -> open()"))
def check_blocking_in_coroutine(project: ProjectContext) -> \
        Iterator[ProjectRawFinding]:
    """Flag event-loop stalls, with the chain down to the primitive.

    A finding is reported in the ``async def`` that makes the call --
    once per call site -- whether the primitive is direct or buried
    under synchronous helpers in other modules.
    """
    analysis = project.taint
    graph = analysis.graph
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if not fn.is_async:
            continue
        for site in fn.calls:
            if site.in_executor:
                continue
            primitive = blocking_primitive(site)
            if primitive is not None:
                yield (fn.path, site.line, site.col,
                       f"blocking call on the event loop: "
                       f"{fn.qualname} -> {primitive}")
                continue
            if site.callee is None:
                if _is_predict(site.attr_tail or site.external):
                    yield (fn.path, site.line, site.col,
                           _predict_advice(fn.qualname))
                continue
            callee = graph.functions.get(site.callee)
            if callee is None or callee.is_async:
                continue
            if _is_predict(site.callee):
                yield (fn.path, site.line, site.col,
                       _predict_advice(fn.qualname))
                continue
            chain = analysis.blocking.get(site.callee)
            if chain is not None:
                steps = " -> ".join((fn.qualname, site.callee)
                                    + chain.chain)
                yield (fn.path, site.line, site.col,
                       f"blocking call on the event loop: {steps}")


def _is_predict(name: object) -> bool:
    return isinstance(name, str) and (
        name == "predict_trace" or name.endswith(".predict_trace"))


def _predict_advice(qualname: str) -> str:
    return (f"direct predict_trace on the event loop in {qualname}; "
            f"compute the router with PredictionCache.insert, one "
            f"scalar contribution per member")


@project_rule("NP-ASYNC-002", Severity.ERROR,
              "coroutine never awaited or task handle dropped",
              example=("coroutine repro.serve.app.NetpowerServer._load "
                       "is called but never awaited"))
def check_unawaited(project: ProjectContext) -> \
        Iterator[ProjectRawFinding]:
    """Flag fire-and-forget coroutine mistakes.

    A bare ``coro()`` statement builds a coroutine object and drops
    it; a bare ``create_task(coro())`` runs, but the task holds no
    strong reference and the event loop may garbage-collect it
    mid-flight -- keep the handle (and cancel it on shutdown).
    """
    graph = project.taint.graph
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        for site in fn.calls:
            tail = site.attr_tail or \
                (site.external or "").rsplit(".", 1)[-1]
            if site.bare and tail in _SPAWN_TAILS:
                yield (fn.path, site.line, site.col,
                       f"task handle dropped in {fn.qualname}: keep "
                       f"the {tail}(...) result so the task cannot "
                       f"be garbage-collected mid-flight")
                continue
            if site.callee is None or not site.bare or site.awaited \
                    or site.spawned or site.in_executor:
                continue
            callee = graph.functions.get(site.callee)
            if callee is not None and callee.is_async:
                yield (fn.path, site.line, site.col,
                       f"coroutine {site.callee} is called but never "
                       f"awaited")


@project_rule("NP-ASYNC-003", Severity.WARNING,
              "shared state mutated from more than one task root",
              example=("attribute NetpowerServer._ready is written "
                       "from 2 task roots (repro.serve.app.serve, "
                       "repro.serve.app.NetpowerServer._load); route "
                       "the writes through one owner"))
def check_cross_task_state(project: ProjectContext) -> \
        Iterator[ProjectRawFinding]:
    """Flag attributes written by async code under multiple roots.

    Reachability runs over the call graph from each spawned task root
    (``create_task`` / ``asyncio.run`` / ``start_server`` callbacks);
    only writes inside ``async def`` bodies count, because a fully
    synchronous call never interleaves on a single-threaded loop.
    One finding per attribute, at its first write site.
    """
    graph = project.taint.graph
    roots = sorted({root for root, _spawner in graph.task_roots})
    if len(roots) < 2:
        return
    reachable_from: Dict[str, Set[str]] = {
        root: _reachable(graph, root) for root in roots}
    # (owner class or module, attr) -> write sites + owning roots.
    writes: Dict[Tuple[str, str],
                 List[Tuple[str, int, int, str]]] = {}
    owners: Dict[Tuple[str, str], Set[str]] = {}
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if not fn.is_async or fn.node is None:
            continue
        fn_roots = {root for root in roots
                    if qualname in reachable_from[root]}
        if not fn_roots:
            continue
        for owner, attr, line, col in _self_writes(graph, fn):
            key = (owner, attr)
            writes.setdefault(key, []).append(
                (fn.path, line, col, qualname))
            owners.setdefault(key, set()).update(fn_roots)
    for key in sorted(writes):
        key_roots = sorted(owners[key])
        if len(key_roots) < 2:
            continue
        path, line, col, _writer = sorted(writes[key])[0]
        owner, attr = key
        yield (path, line, col,
               f"attribute {owner.rsplit('.', 1)[-1]}.{attr} is "
               f"written from {len(key_roots)} task roots "
               f"({', '.join(key_roots)}); route the writes through "
               f"one owner")


def _reachable(graph: ProjectGraph, root: str) -> Set[str]:
    seen: Set[str] = set()
    stack = [root]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        fn = graph.functions.get(current)
        if fn is None:
            continue
        for site in fn.calls:
            if site.callee is not None and not site.in_executor:
                stack.append(site.callee)
    return seen


def _self_writes(graph: ProjectGraph, fn: FunctionInfo) -> \
        Iterator[Tuple[str, str, int, int]]:
    """``self.attr = ...`` / ``self.attr op= ...`` sites in a body."""
    owner = fn.cls or fn.module
    for stmt in graph.body_nodes(fn, ast.Assign, ast.AugAssign,
                                 ast.AnnAssign):
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                yield (owner, target.attr, target.lineno,
                       target.col_offset)
