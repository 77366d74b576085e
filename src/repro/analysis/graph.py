"""Module/symbol resolver and call graph for ``netpower check``.

The per-file rules see one AST at a time; the NP-FLOW / NP-ASYNC /
NP-MUT families need to know *who calls whom across modules* -- a
wall-clock read laundered through a helper function in another module
is invisible to any syntactic, per-file check.  This module builds
that picture from the parsed trees the engine already holds:

* a :class:`ModuleInfo` per checked file, with its import aliases
  resolved (``import numpy as np``, ``from repro.ioutil import
  atomic_write_text``, relative imports);
* a :class:`FunctionInfo` per function/method (plus a ``<module>``
  pseudo-function for module-level statements), each carrying its
  :class:`CallSite` list;
* best-effort *local type inference* (constructor assignments,
  parameter/attribute annotations) so ``state.static_w[...] = ...``
  can be traced back to a :class:`~repro.network.engine.FleetState`
  and ``self.cache.insert(...)`` to the right method.

Resolution is deliberately conservative: a call that cannot be
resolved to a project function keeps its dotted text (for primitive
matching like ``time.sleep``) or its trailing attribute name, and the
analyses treat it as opaque.  Everything is built in sorted path
order, so graph construction -- like every other stage of the checker
-- is byte-deterministic.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Type, TypeVar

from repro.analysis.astutil import NodeIndex, dotted_name
from repro.analysis.engine import FileContext

#: Callables that schedule a coroutine as an independent task.
_SPAWN_TAILS = frozenset(("create_task", "ensure_future"))
#: Callables whose function-reference arguments become task roots.
_SERVER_TAILS = frozenset(("start_server",))
#: Callables that hand their function argument to a worker thread --
#: the argument escapes the event loop entirely.
_EXECUTOR_TAILS = frozenset(("run_in_executor",))

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_N = TypeVar("_N", bound=ast.AST)


@dataclass
class CallSite:
    """One call expression inside a function body."""

    line: int
    col: int
    #: Qualified name of the resolved project function, if any.
    callee: Optional[str] = None
    #: Resolved dotted name when the target is outside the project
    #: (``time.sleep``, ``numpy.random.default_rng``, ``open``).
    external: Optional[str] = None
    #: Trailing attribute when the receiver is opaque
    #: (``writer.drain`` -> ``drain``).
    attr_tail: Optional[str] = None
    #: Whether the call is directly awaited.
    awaited: bool = False
    #: Whether the call happens inside ``run_in_executor`` arguments
    #: (i.e. off-loop, on a worker thread).
    in_executor: bool = False
    #: Whether the call is an argument of ``create_task`` and friends.
    spawned: bool = False
    #: Whether the call is a bare expression statement.
    bare: bool = False


@dataclass
class FunctionInfo:
    """One function, method, or module body in the call graph."""

    qualname: str  #: e.g. ``repro.serve.app.NetpowerServer._load``
    module: str
    path: str
    is_async: bool
    #: Owning class qualname for methods, else None.
    cls: Optional[str] = None
    node: Optional[ast.AST] = None  #: None for ``<module>`` bodies
    calls: List[CallSite] = field(default_factory=list)
    #: ``(line, col)`` of each call expression -> its resolved site,
    #: so the taint propagator can re-walk the AST and look up what a
    #: given ``ast.Call`` resolved to.
    site_index: Dict[Tuple[int, int], CallSite] = \
        field(default_factory=dict)
    #: Local name -> project class qualname (inference results).
    local_types: Dict[str, str] = field(default_factory=dict)
    line: int = 0


@dataclass
class ClassInfo:
    """One class: its methods and the inferred types of its attributes."""

    qualname: str
    module: str
    simple: str
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> project class qualname.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One checked file's namespace."""

    name: str  #: dotted module name, e.g. ``repro.serve.app``
    path: str
    tree: ast.Module
    index: NodeIndex  #: the file's one walk (:class:`FileContext`)
    #: Local alias -> module dotted name (``np`` -> ``numpy``).
    import_aliases: Dict[str, str] = field(default_factory=dict)
    #: Local alias -> dotted symbol (``sleep`` -> ``time.sleep``).
    symbol_aliases: Dict[str, str] = field(default_factory=dict)
    #: Top-level function name -> qualname.
    functions: Dict[str, str] = field(default_factory=dict)
    #: Top-level class name -> class qualname.
    classes: Dict[str, str] = field(default_factory=dict)


def module_name_for(path: str) -> str:
    """The dotted module name for a package-relative path.

    ``serve/app.py`` -> ``repro.serve.app``; ``__init__.py`` files
    name their package.
    """
    parts = path[:-3].split("/") if path.endswith(".py") else \
        path.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro"] + [p for p in parts if p])


class ProjectGraph:
    """The resolved project: modules, functions, classes, call edges."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Async functions spawned as independent tasks, with the
        #: spawning function: (root qualname, spawner qualname).
        self.task_roots: List[Tuple[str, str]] = []

    # -- queries used by the rule modules -----------------------------------

    def resolve_project(self, dotted: str) -> Optional[str]:
        """Map a dotted name onto a project function qualname, if any."""
        if dotted in self.functions:
            return dotted
        # Longest module prefix + remainder (function or Class.method).
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module not in self.modules:
                continue
            remainder = ".".join(parts[split:])
            candidate = f"{module}.{remainder}"
            if candidate in self.functions:
                return candidate
            if candidate in self.classes:
                init = self.classes[candidate].methods.get("__init__")
                return init
            return None
        return None

    def resolve_class(self, dotted: str) -> Optional[str]:
        """Map a dotted name onto a project class qualname, if any."""
        if dotted in self.classes:
            return dotted
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module in self.modules:
                candidate = f"{module}.{'.'.join(parts[split:])}"
                return candidate if candidate in self.classes else None
        return None

    def body_nodes(self, fn: FunctionInfo,
                   *types: Type[_N]) -> List[_N]:
        """Nodes of ``types`` anywhere in a function's definition (nested
        defs included), in ``ast.walk`` order, read off the file index."""
        assert fn.node is not None
        return self.modules[fn.module].index.within(fn.node, *types)


def build_graph(files: Mapping[str, FileContext]) -> ProjectGraph:
    """Build the whole-project graph from already-parsed files."""
    graph = ProjectGraph()
    for path in sorted(files):
        context = files[path]
        name = module_name_for(path)
        graph.modules[name] = ModuleInfo(name=name, path=path,
                                         tree=context.tree,
                                         index=context.index)
    for name in sorted(graph.modules):
        _collect_namespace(graph, graph.modules[name])
    for name in sorted(graph.modules):
        _collect_bodies(graph, graph.modules[name])
    graph.task_roots.sort()
    return graph


# -- pass 1: imports, top-level defs, class attribute types -------------------


def _collect_namespace(graph: ProjectGraph, module: ModuleInfo) -> None:
    for node in module.tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                module.import_aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(module.name, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                dotted = f"{base}.{alias.name}" if base else alias.name
                if dotted in graph.modules:
                    module.import_aliases[local] = dotted
                else:
                    module.symbol_aliases[local] = dotted
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{module.name}.{node.name}"
            module.functions[node.name] = qual
            _register_function(graph, module, qual, node, cls=None)
        elif isinstance(node, ast.ClassDef):
            qual = f"{module.name}.{node.name}"
            module.classes[node.name] = qual
            info = ClassInfo(qualname=qual, module=module.name,
                             simple=node.name)
            graph.classes[qual] = info
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    method_qual = f"{qual}.{item.name}"
                    info.methods[item.name] = method_qual
                    _register_function(graph, module, method_qual, item,
                                       cls=qual)
    # The module body itself is a pseudo-function so module-level
    # statements (constant taint, spawn sites) participate.
    graph.functions[f"{module.name}.<module>"] = FunctionInfo(
        qualname=f"{module.name}.<module>", module=module.name,
        path=module.path, is_async=False, node=None, line=0)


def _import_base(module_name: str, node: ast.ImportFrom) -> Optional[str]:
    """The absolute module a ``from X import ...`` refers to."""
    if node.level == 0:
        return node.module or ""
    # Relative import: walk up from the importing module's package.
    parts = module_name.split(".")
    # A module's package is itself for __init__ (not modelled -- the
    # resolver maps paths to full module names), so drop one level for
    # the module component plus (level - 1) packages.
    base_parts = parts[:max(0, len(parts) - node.level)]
    if node.module:
        base_parts = base_parts + node.module.split(".")
    return ".".join(base_parts) if base_parts else None


def _register_function(graph: ProjectGraph, module: ModuleInfo,
                       qualname: str, node: ast.AST,
                       cls: Optional[str]) -> None:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    graph.functions[qualname] = FunctionInfo(
        qualname=qualname, module=module.name, path=module.path,
        is_async=isinstance(node, ast.AsyncFunctionDef), cls=cls,
        node=node, line=node.lineno)


# -- pass 2: bodies (type inference + call sites) -----------------------------


def _collect_bodies(graph: ProjectGraph, module: ModuleInfo) -> None:
    # Class attribute types first, so method bodies can use them.
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            info = graph.classes[module.classes[node.name]]
            _infer_class_attrs(graph, module, node, info)
    walker = _BodyWalker(graph, module)
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walker.walk_function(module.functions[node.name], node)
        elif isinstance(node, ast.ClassDef):
            class_qual = module.classes[node.name]
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    walker.walk_function(
                        graph.classes[class_qual].methods[item.name],
                        item)
    walker.walk_module_body(f"{module.name}.<module>", module.tree)


def _annotation_class(graph: ProjectGraph, module: ModuleInfo,
                      annotation: Optional[ast.AST]) -> Optional[str]:
    """The project class named inside an annotation, if exactly one."""
    if annotation is None:
        return None
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return None
    found: List[str] = []
    for token in _IDENTIFIER.findall(text):
        resolved = _resolve_class_name(graph, module, token)
        if resolved is not None and resolved not in found:
            found.append(resolved)
    return found[0] if len(found) == 1 else None


def _resolve_class_name(graph: ProjectGraph, module: ModuleInfo,
                        name: str) -> Optional[str]:
    """A bare identifier as a project class, via local defs or imports."""
    if name in module.classes:
        return module.classes[name]
    dotted = module.symbol_aliases.get(name)
    if dotted is not None:
        return graph.resolve_class(dotted)
    return None


def _infer_class_attrs(graph: ProjectGraph, module: ModuleInfo,
                       node: ast.ClassDef, info: ClassInfo) -> None:
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and \
                isinstance(item.target, ast.Name):
            cls = _annotation_class(graph, module, item.annotation)
            if cls is not None:
                info.attr_types[item.target.id] = cls
    # First binding in ast.walk order wins (breadth-first: a
    # statement-level binding beats one nested in an ``if``).
    for assign in module.index.within(node, ast.Assign):
        cls = _constructed_class(graph, module, assign.value)
        if cls is None:
            continue
        for target in assign.targets:
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                info.attr_types.setdefault(target.attr, cls)


def _constructed_class(graph: ProjectGraph, module: ModuleInfo,
                       value: ast.AST) -> Optional[str]:
    """The project class a ``ClassName(...)`` expression constructs."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name):
        return _resolve_class_name(graph, module, func.id)
    if isinstance(func, ast.Attribute):
        dotted = dotted_name(func)
        if dotted is None:
            return None
        full = _expand_alias(module, dotted)
        return graph.resolve_class(full) if full else None
    return None


def _expand_alias(module: ModuleInfo, dotted: str) -> Optional[str]:
    """Rewrite the root of a dotted name through the import tables."""
    root, _, rest = dotted.partition(".")
    if root in module.import_aliases:
        base = module.import_aliases[root]
        return f"{base}.{rest}" if rest else base
    if root in module.symbol_aliases:
        base = module.symbol_aliases[root]
        return f"{base}.{rest}" if rest else base
    return dotted


@dataclass
class _WalkState:
    """Flags carried down the recursive body walk."""

    awaited: bool = False
    in_executor: bool = False
    spawned: bool = False
    bare: bool = False


class _BodyWalker:
    """Second-pass visitor: call sites + local type inference."""

    def __init__(self, graph: ProjectGraph, module: ModuleInfo):
        self.graph = graph
        self.module = module
        self._nested: Dict[str, ast.AST] = {}
        self._current: FunctionInfo = \
            graph.functions[f"{module.name}.<module>"]

    # -- entry points --------------------------------------------------------

    def walk_function(self, qualname: str, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        info = self.graph.functions[qualname]
        self._infer_param_types(info, node)
        # Directly nested defs; the first of a name in source order wins.
        nested: Dict[str, ast.AST] = {}
        for child in self.module.index.nested_defs(node):
            nested.setdefault(child.name, child)
        self._nested = nested
        self._current = info
        # Default-argument expressions run at definition time in the
        # enclosing scope, but a taint seeded there launders into the
        # parameter -- walk them as part of this function.
        args = node.args
        for default in list(args.defaults) + \
                [d for d in args.kw_defaults if d is not None]:
            self._visit(default, _WalkState())
        for stmt in node.body:
            self._visit(stmt, _WalkState())
        # Nested defs get their own FunctionInfo and walk.  The walk
        # reassigns self._nested/_current, so iterate a snapshot.
        for child_name, child_node in list(nested.items()):
            child_qual = f"{qualname}.{child_name}"
            self.graph.functions[child_qual] = FunctionInfo(
                qualname=child_qual, module=self.module.name,
                path=self.module.path,
                is_async=isinstance(child_node, ast.AsyncFunctionDef),
                cls=info.cls, node=child_node, line=child_node.lineno)
            self.walk_function(child_qual, child_node)

    def walk_module_body(self, qualname: str, tree: ast.Module) -> None:
        info = self.graph.functions[qualname]
        self._nested = {}
        self._current = info
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            self._visit(stmt, _WalkState())

    # -- inference -----------------------------------------------------------

    def _infer_param_types(self, info: FunctionInfo,
                           node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            cls = _annotation_class(self.graph, self.module,
                                    arg.annotation)
            if cls is not None:
                info.local_types[arg.arg] = cls
        if info.cls is not None:
            info.local_types.setdefault("self", info.cls)

    def expr_type(self, node: ast.AST,
                  info: Optional[FunctionInfo] = None) -> Optional[str]:
        """The project class an expression evaluates to, if inferable."""
        info = info if info is not None else self._current
        if isinstance(node, ast.Name):
            return info.local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.expr_type(node.value, info)
            if owner is not None:
                owner_info = self.graph.classes.get(owner)
                if owner_info is not None:
                    return owner_info.attr_types.get(node.attr)
            return None
        if isinstance(node, ast.Call):
            return _constructed_class(self.graph, self.module, node)
        return None

    # -- traversal -----------------------------------------------------------

    def _visit(self, node: ast.AST, state: _WalkState) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # handled as a nested function
        if isinstance(node, ast.Expr):
            inner = _WalkState(awaited=state.awaited,
                               in_executor=state.in_executor,
                               spawned=state.spawned, bare=True)
            self._visit(node.value, inner)
            return
        if isinstance(node, ast.Await):
            inner = _WalkState(awaited=True,
                               in_executor=state.in_executor,
                               spawned=state.spawned, bare=False)
            self._visit(node.value, inner)
            return
        if isinstance(node, ast.Assign):
            self._infer_assign(node)
        if isinstance(node, ast.Call):
            self._visit_call(node, state)
            return
        # States are never mutated, so the children can share one.  This
        # loop runs once per node of every body, so it reads the fields
        # directly (``ast.iter_child_nodes`` order) and skips field-less
        # leaves such as ``Load`` and ``Add``, whose visit does nothing.
        child_state = _WalkState(in_executor=state.in_executor,
                                 spawned=state.spawned)
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        self._visit(item, child_state)
            elif isinstance(value, ast.AST) and value._fields:
                self._visit(value, child_state)

    def _infer_assign(self, node: ast.Assign) -> None:
        cls = self.expr_type(node.value)
        if cls is None:
            return
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._current.local_types[target.id] = cls

    def _visit_call(self, node: ast.Call, state: _WalkState) -> None:
        site = self._resolve_call(node, state)
        self._current.calls.append(site)
        self._current.site_index[(node.lineno, node.col_offset)] = site
        tail = site.attr_tail or (site.external or "").rsplit(".", 1)[-1]
        executor_args = tail in _EXECUTOR_TAILS
        spawning = tail in _SPAWN_TAILS or site.external == "asyncio.run"
        server_args = tail in _SERVER_TAILS
        # The function expression itself (e.g. the receiver chain).
        self._visit(node.func, _WalkState(in_executor=state.in_executor))
        for index, arg in enumerate(_all_args(node)):
            child = _WalkState(
                in_executor=state.in_executor or
                (executor_args and index >= 1),
                spawned=spawning)
            if spawning:
                self._note_spawn(arg)
            if server_args or (executor_args and index >= 1):
                self._note_reference(arg, in_executor=executor_args,
                                     as_root=server_args)
            if isinstance(arg, ast.Lambda):
                for stmt in ast.iter_child_nodes(arg):
                    self._visit(stmt, child)
            else:
                self._visit(arg, child)

    def _note_spawn(self, arg: ast.AST) -> None:
        """Register ``create_task(coro())`` arguments as task roots."""
        if not isinstance(arg, ast.Call):
            return
        resolved = self._resolve_call(arg, _WalkState())
        if resolved.callee is not None:
            callee = self.graph.functions.get(resolved.callee)
            if callee is not None and callee.is_async:
                self.graph.task_roots.append(
                    (resolved.callee, self._current.qualname))

    def _note_reference(self, arg: ast.AST, in_executor: bool,
                        as_root: bool) -> None:
        """Register bare function references passed as callbacks."""
        if not isinstance(arg, (ast.Name, ast.Attribute)):
            return
        callee = self._resolve_target(arg)
        if callee is None:
            return
        if as_root:
            self.graph.task_roots.append(
                (callee, self._current.qualname))
        if in_executor:
            self._current.calls.append(CallSite(
                line=arg.lineno, col=arg.col_offset, callee=callee,
                in_executor=True))

    # -- call target resolution ----------------------------------------------

    def _resolve_call(self, node: ast.Call,
                      state: _WalkState) -> CallSite:
        site = CallSite(line=node.lineno, col=node.col_offset,
                        awaited=state.awaited,
                        in_executor=state.in_executor,
                        spawned=state.spawned, bare=state.bare)
        target = self._resolve_target(node.func)
        if target is not None:
            site.callee = target
            return site
        func = node.func
        if isinstance(func, ast.Name):
            dotted = self.module.symbol_aliases.get(func.id, func.id)
            site.external = dotted
            return site
        if isinstance(func, ast.Attribute):
            dotted = dotted_name(func)
            if dotted is not None:
                expanded = _expand_alias(self.module, dotted)
                root = (expanded or dotted).split(".", 1)[0]
                known_root = isinstance(func.value, ast.Name) and (
                    func.value.id in self.module.import_aliases
                    or func.value.id in self.module.symbol_aliases)
                multi = isinstance(func.value, (ast.Name, ast.Attribute))
                if expanded and (known_root or (
                        multi and root not in ("self", "cls"))):
                    site.external = expanded
                    return site
            site.attr_tail = func.attr
            return site
        site.attr_tail = getattr(func, "attr", None)
        return site

    def _resolve_target(self, func: ast.AST) -> Optional[str]:
        """A Name/Attribute expression as a project function qualname."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in self._nested:
                return f"{self._current.qualname}.{name}"
            if name in self.module.functions:
                return self.module.functions[name]
            if name in self.module.classes:
                cls = self.graph.classes[self.module.classes[name]]
                return cls.methods.get("__init__",
                                       cls.qualname + ".__init__")
            dotted = self.module.symbol_aliases.get(name)
            if dotted is not None:
                resolved = self.graph.resolve_project(dotted)
                if resolved is not None:
                    return resolved
                as_class = self.graph.resolve_class(dotted)
                if as_class is not None:
                    cls = self.graph.classes[as_class]
                    return cls.methods.get(
                        "__init__", cls.qualname + ".__init__")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        # self.method() / self.attr.method() / local.method()
        receiver_type = self.expr_type(func.value)
        if receiver_type is not None:
            cls_info = self.graph.classes.get(receiver_type)
            if cls_info is not None and func.attr in cls_info.methods:
                return cls_info.methods[func.attr]
            return None
        dotted = dotted_name(func)
        if dotted is None:
            return None
        expanded = _expand_alias(self.module, dotted)
        if expanded is None:
            return None
        if dotted != expanded or dotted.split(".")[0] in \
                self.module.classes:
            # ClassName.method(...) on a local or imported class.
            head = dotted.split(".")[0]
            if head in self.module.classes and len(
                    dotted.split(".")) == 2:
                cls_info = self.graph.classes[self.module.classes[head]]
                return cls_info.methods.get(dotted.split(".")[1])
            return self.graph.resolve_project(expanded)
        return self.graph.resolve_project(expanded)


def _all_args(node: ast.Call) -> List[ast.AST]:
    """Positional then keyword argument expressions, in source order."""
    out: List[ast.AST] = list(node.args)
    out.extend(kw.value for kw in node.keywords)
    return out
