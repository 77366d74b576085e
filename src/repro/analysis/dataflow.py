"""Interprocedural taint and blocking-call analysis.

Two fixed points over the :mod:`.graph` call graph:

* **Taint** -- seeds at known nondeterminism sources (wall-clock
  reads, ambient RNG, unordered ``set`` construction) and propagates
  through assignments, returns, and calls until a tainted value
  crosses into the deterministic sink packages
  (:attr:`~repro.analysis.engine.CheckConfig.flow_sinks`).  Each
  function gets a *returns-taint* summary carrying the full witness
  chain (``time.time() -> repro.obs.x.now_ms -> ...``), so NP-FLOW
  findings can print the exact laundering path.  Sources inside the
  sanctioned wall-clock files do not seed (those are the timing paths
  the contract explicitly allows).

* **Blocking** -- seeds at calls that stall a thread (``time.sleep``,
  synchronous file/socket I/O, ``subprocess``) and propagates through
  *synchronous* project functions only.  An ``async def`` whose body
  reaches a blocking summary stalls the whole event loop; NP-ASYNC
  reports it with the call chain down to the primitive.  Calls routed
  through ``run_in_executor`` escape the loop and cut the chain.

Both analyses are flow-insensitive within a function (names only gain
taint, so each local pass terminates) and run the global fixed point
in sorted-qualname order with first-writer-wins summaries, making the
whole thing byte-deterministic -- the same property the rules exist
to defend.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.engine import CheckConfig
from repro.analysis.graph import CallSite, FunctionInfo, ProjectGraph

#: External callables whose return value is the current wall-clock /
#: monotonic time.  ``datetime.now`` covers ``from datetime import
#: datetime`` usage; the dotted form covers ``import datetime``.
WALLCLOCK_SOURCES = frozenset((
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "datetime.now", "datetime.utcnow", "date.today",
))

#: External callables whose return value is ambient (unseeded) RNG.
RNG_SOURCES = frozenset((
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
))
RNG_PREFIXES: Tuple[str, ...] = ("random.", "secrets.")

#: Builtins whose result iterates in hash order.
ORDER_SOURCES = frozenset(("set", "frozenset"))

#: External callables that block the calling thread, with the display
#: name used at the end of a witness chain.
BLOCKING_EXTERNAL: Dict[str, str] = {
    "time.sleep": "time.sleep()",
    "open": "open()",
    "io.open": "open()",
    "socket.create_connection": "socket.create_connection()",
    "socket.getaddrinfo": "socket.getaddrinfo()",
    "urllib.request.urlopen": "urllib.request.urlopen()",
    "os.replace": "os.replace()",
    "os.rename": "os.rename()",
    "os.fsync": "os.fsync()",
    "tempfile.NamedTemporaryFile": "tempfile.NamedTemporaryFile()",
    "tempfile.mkstemp": "tempfile.mkstemp()",
}
BLOCKING_EXTERNAL_PREFIXES: Tuple[str, ...] = ("subprocess.", "shutil.")

#: Method names that block regardless of receiver resolution:
#: pathlib I/O and synchronous socket primitives.  Kept narrow --
#: ``read``/``write`` would false-positive on asyncio streams.
BLOCKING_TAILS = frozenset((
    "read_text", "write_text", "read_bytes", "write_bytes",
    "recv", "recvfrom", "sendall", "accept",
))


@dataclass(frozen=True)
class Taint:
    """A nondeterministic value and how it got here.

    ``chain`` starts at the source primitive (``"time.time()"``) and
    appends each function the value passed through on its way up.
    """

    kind: str  #: ``wallclock`` | ``rng`` | ``order``
    chain: Tuple[str, ...]

    @property
    def kind_label(self) -> str:
        """Human label for the taint kind, used in finding messages."""
        return {"wallclock": "wall-clock", "rng": "ambient-RNG",
                "order": "unordered-iteration"}[self.kind]


@dataclass(frozen=True)
class BlockChain:
    """Why a (synchronous) function blocks: steps below it, ending at
    the primitive display name."""

    chain: Tuple[str, ...]


@dataclass(frozen=True)
class FlowHit:
    """One NP-FLOW boundary crossing, ready to report."""

    path: str
    line: int
    col: int
    kind: str
    chain: Tuple[str, ...]  #: full source -> sink display chain

    @property
    def kind_label(self) -> str:
        """Human label for the taint kind, used in finding messages."""
        return {"wallclock": "wall-clock", "rng": "ambient-RNG",
                "order": "unordered-iteration"}[self.kind]


@dataclass
class TaintAnalysis:
    """The result bundle handed to the project rules."""

    graph: ProjectGraph
    config: CheckConfig
    #: Function qualname -> taint carried by its return value.
    returns_taint: Dict[str, Taint] = field(default_factory=dict)
    #: Sync function qualname -> why calling it blocks the thread.
    blocking: Dict[str, BlockChain] = field(default_factory=dict)
    #: NP-FLOW boundary crossings, sorted by (path, line, col).
    flow_hits: List[FlowHit] = field(default_factory=list)

    def in_sink_scope(self, path: str) -> bool:
        """Whether ``path``'s functions are NP-FLOW taint sinks."""
        if path in self.config.wallclock_allow:
            return False
        for prefix in self.config.flow_sinks:
            if prefix.endswith("/"):
                if path.startswith(prefix):
                    return True
            elif path == prefix:
                return True
        return False


def analyze(graph: ProjectGraph, config: CheckConfig) -> TaintAnalysis:
    """Run both fixed points and precompute the NP-FLOW hits."""
    analysis = TaintAnalysis(graph=graph, config=config)
    _taint_fixed_point(analysis)
    _blocking_fixed_point(analysis)
    _collect_flow_hits(analysis)
    return analysis


# -- taint --------------------------------------------------------------------


def _taint_fixed_point(analysis: TaintAnalysis) -> None:
    order = sorted(analysis.graph.functions)
    changed = True
    while changed:
        changed = False
        for qualname in order:
            if qualname in analysis.returns_taint:
                continue
            fn = analysis.graph.functions[qualname]
            if fn.node is None:
                continue
            taint, _env = _FunctionEval(analysis, fn).run()
            if taint is not None:
                analysis.returns_taint[qualname] = Taint(
                    kind=taint.kind,
                    chain=taint.chain + (qualname,))
                changed = True


class _FunctionEval:
    """Flow-insensitive taint evaluation of one function body."""

    def __init__(self, analysis: TaintAnalysis, fn: FunctionInfo):
        self.analysis = analysis
        self.fn = fn
        self.env: Dict[str, Taint] = {}
        self.returned: Optional[Taint] = None

    def run(self) -> Tuple[Optional[Taint], Dict[str, Taint]]:
        node = self.fn.node
        assert node is not None and \
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._seed_defaults(node)
        # Iterate the body until the local environment stops growing
        # (use-before-def across statements is rare but legal in
        # loops); names only gain taint, so this terminates.
        for _round in range(8):
            before = len(self.env), self.returned is not None
            for stmt in node.body:
                self._stmt(stmt)
            if (len(self.env), self.returned is not None) == before:
                break
        return self.returned, dict(self.env)

    # -- seeding -------------------------------------------------------------

    def _seed_defaults(self, node: ast.AST) -> None:
        """``def f(t=time.time())`` launders taint into a parameter."""
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        for arg, default in zip(positional[len(positional)
                                           - len(args.defaults):],
                                args.defaults):
            taint = self.expr(default)
            if taint is not None:
                self.env.setdefault(arg.arg, taint)
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is None:
                continue
            taint = self.expr(kw_default)
            if taint is not None:
                self.env.setdefault(arg.arg, taint)

    def _seed_call(self, site: CallSite) -> Optional[Taint]:
        external = site.external
        if external is None:
            return None
        if external in WALLCLOCK_SOURCES:
            if self.fn.path in self.analysis.config.wallclock_allow:
                return None
            return Taint("wallclock", (external + "()",))
        if external in RNG_SOURCES or \
                external.startswith(RNG_PREFIXES):
            return Taint("rng", (external + "()",))
        if external in ORDER_SOURCES:
            return Taint("order", (external + "()",))
        return None

    # -- statements ----------------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(node, ast.Return):
            if node.value is not None and self.returned is None:
                self.returned = self.expr(node.value)
            return
        if isinstance(node, ast.Assign):
            taint = self.expr(node.value)
            if taint is not None:
                for target in node.targets:
                    self._bind(target, taint)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                taint = self.expr(node.value)
                if taint is not None:
                    self._bind(node.target, taint)
            return
        if isinstance(node, ast.AugAssign):
            taint = self.expr(node.value)
            if taint is not None:
                self._bind(node.target, taint)
            return
        if isinstance(node, ast.For):
            taint = self.expr(node.iter)
            if taint is not None:
                self._bind(node.target, taint)
            for stmt in node.body + node.orelse:
                self._stmt(stmt)
            return
        if isinstance(node, ast.With) or \
                isinstance(node, ast.AsyncWith):
            for item in node.items:
                taint = self.expr(item.context_expr)
                if taint is not None and item.optional_vars is not None:
                    self._bind(item.optional_vars, taint)
            for stmt in node.body:
                self._stmt(stmt)
            return
        if isinstance(node, (ast.If, ast.While)):
            for stmt in node.body + node.orelse:
                self._stmt(stmt)
            return
        if isinstance(node, ast.Try):
            for stmt in node.body + node.orelse + node.finalbody:
                self._stmt(stmt)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._stmt(stmt)
            return
        if isinstance(node, ast.AsyncFor):
            taint = self.expr(node.iter)
            if taint is not None:
                self._bind(node.target, taint)
            for stmt in node.body + node.orelse:
                self._stmt(stmt)
            return
        # Everything else (Expr, Raise, Assert, ...) binds nothing.

    def _bind(self, target: ast.AST, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint)
        # Attribute/Subscript targets: not tracked (field-insensitive).

    # -- expressions ---------------------------------------------------------

    def expr(self, node: ast.AST) -> Optional[Taint]:
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Await):
            return self.expr(node.value)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            return self.expr(node.value)
        if isinstance(node, ast.Lambda):
            return None
        children = [child for child in ast.iter_child_nodes(node)
                    if isinstance(child, ast.expr)]
        return self._join(self.expr(child) for child in children)

    def _call(self, node: ast.Call) -> Optional[Taint]:
        site = self.fn.site_index.get((node.lineno, node.col_offset))
        if site is None:
            return None
        if site.callee is not None:
            summary = self.analysis.returns_taint.get(site.callee)
            return summary
        seeded = self._seed_call(site)
        if seeded is not None:
            return seeded
        # ``sorted`` restores a deterministic order but cannot fix
        # nondeterministic *values*; other opaque calls forward the
        # join of their receiver and arguments.
        arg_taint = self._join(
            [self.expr(arg) for arg in node.args]
            + [self.expr(kw.value) for kw in node.keywords]
            + ([self.expr(node.func.value)]
               if isinstance(node.func, ast.Attribute) else []))
        if site.external == "sorted" or site.attr_tail == "sort":
            if arg_taint is not None and arg_taint.kind == "order":
                return None
            return arg_taint
        if site.external in ("len", "isinstance", "issubclass", "id",
                            "bool", "type", "repr", "print"):
            return None
        return arg_taint

    @staticmethod
    def _join(taints: Iterable[Optional[Taint]]) -> Optional[Taint]:
        """First value-kind taint if any, else first order taint."""
        first_order: Optional[Taint] = None
        for taint in taints:
            if taint is None:
                continue
            if taint.kind in ("wallclock", "rng"):
                return taint
            if first_order is None:
                first_order = taint
        return first_order


# -- blocking -----------------------------------------------------------------


def blocking_primitive(site: CallSite) -> Optional[str]:
    """The display name of the blocking primitive a call site hits
    directly, if any."""
    external = site.external
    if external is not None:
        if external in BLOCKING_EXTERNAL:
            return BLOCKING_EXTERNAL[external]
        if external.startswith(BLOCKING_EXTERNAL_PREFIXES):
            return external + "()"
    tail = site.attr_tail
    if tail is not None and tail in BLOCKING_TAILS:
        return f".{tail}()"
    if tail == "open":
        return "open()"
    return None


def _blocking_fixed_point(analysis: TaintAnalysis) -> None:
    """First-writer-wins blocking summaries over sync functions only.

    Async callees are excluded: an ``async def`` that blocks is
    reported at its own body, not at every ``await`` of it.
    """
    order = sorted(analysis.graph.functions)
    changed = True
    while changed:
        changed = False
        for qualname in order:
            if qualname in analysis.blocking:
                continue
            fn = analysis.graph.functions[qualname]
            if fn.is_async:
                continue
            summary = _blocking_summary(analysis, fn)
            if summary is not None:
                analysis.blocking[qualname] = summary
                changed = True


def _blocking_summary(analysis: TaintAnalysis,
                      fn: FunctionInfo) -> Optional[BlockChain]:
    for site in fn.calls:
        if site.in_executor:
            continue
        primitive = blocking_primitive(site)
        if primitive is not None:
            return BlockChain(chain=(primitive,))
        if site.callee is not None and site.callee in analysis.blocking:
            callee = analysis.graph.functions.get(site.callee)
            if callee is not None and callee.is_async:
                continue
            return BlockChain(
                chain=(site.callee,)
                + analysis.blocking[site.callee].chain)
    return None


# -- NP-FLOW boundary crossings ----------------------------------------------


def _collect_flow_hits(analysis: TaintAnalysis) -> None:
    hits: List[FlowHit] = []
    for qualname in sorted(analysis.graph.functions):
        fn = analysis.graph.functions[qualname]
        if fn.node is None:
            continue
        if analysis.in_sink_scope(fn.path):
            hits.extend(_hits_inside_sink(analysis, fn))
        else:
            hits.extend(_hits_into_sink(analysis, fn))
    seen = set()
    unique: List[FlowHit] = []
    for hit in sorted(hits, key=lambda h: (h.path, h.line, h.col,
                                           h.kind, h.chain)):
        key = (hit.path, hit.line, hit.col, hit.kind)
        if key not in seen:
            seen.add(key)
            unique.append(hit)
    analysis.flow_hits = unique


def _hits_inside_sink(analysis: TaintAnalysis,
                      fn: FunctionInfo) -> List[FlowHit]:
    """Sink code calling a tainted-return helper defined outside."""
    hits = []
    for site in fn.calls:
        if site.callee is None:
            continue
        taint = analysis.returns_taint.get(site.callee)
        if taint is None:
            continue
        callee = analysis.graph.functions.get(site.callee)
        if callee is None or analysis.in_sink_scope(callee.path):
            continue  # intra-sink flow: the origin gets the finding
        hits.append(FlowHit(
            path=fn.path, line=site.line, col=site.col,
            kind=taint.kind, chain=taint.chain + (fn.qualname,)))
    return hits


def _hits_into_sink(analysis: TaintAnalysis,
                    fn: FunctionInfo) -> List[FlowHit]:
    """Outside code passing a tainted argument into a sink function."""
    sink_calls = []
    for call in analysis.graph.body_nodes(fn, ast.Call):
        site = fn.site_index.get((call.lineno, call.col_offset))
        if site is None or site.callee is None:
            continue
        callee = analysis.graph.functions.get(site.callee)
        if callee is not None and analysis.in_sink_scope(callee.path):
            sink_calls.append((call, site.callee))
    if not sink_calls:
        return []
    evaluator = _FunctionEval(analysis, fn)
    evaluator.run()
    hits = []
    for call, sink in sink_calls:
        taint = evaluator._join(
            [evaluator.expr(arg) for arg in call.args]
            + [evaluator.expr(kw.value) for kw in call.keywords])
        if taint is None:
            continue
        hits.append(FlowHit(
            path=fn.path, line=call.lineno, col=call.col_offset,
            kind=taint.kind, chain=taint.chain + (sink,)))
    return hits
