"""Small AST helpers shared by the rule modules, and the per-file
:class:`NodeIndex` every rule and the graph read instead of walking."""

from __future__ import annotations

import ast
import math
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple, Type, TypeVar, Union, cast

#: Identifier suffix -> (dimension, scale relative to the SI base unit).
#: Longest suffix wins, so ``_gbps`` is a rate before ``_s`` is a time.
UNIT_SUFFIXES: Dict[str, Tuple[str, float]] = {
    "kwh": ("energy", 3.6e6),
    "pj": ("energy", 1e-12),
    "nj": ("energy", 1e-9),
    "uj": ("energy", 1e-6),
    "mj": ("energy", 1e-3),
    "j": ("energy", 1.0),
    "kw": ("power", 1e3),
    "w": ("power", 1.0),
    "tbps": ("rate", 1e12),
    "gbps": ("rate", 1e9),
    "mbps": ("rate", 1e6),
    "kbps": ("rate", 1e3),
    "bps": ("rate", 1.0),
    "pps": ("packet_rate", 1.0),
    "ns": ("time", 1e-9),
    "us": ("time", 1e-6),
    "ms": ("time", 1e-3),
    "s": ("time", 1.0),
}

_SUFFIXES_BY_LENGTH = sorted(UNIT_SUFFIXES, key=len, reverse=True)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def identifier_of(node: ast.AST) -> Optional[str]:
    """The trailing identifier of a Name or Attribute, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unit_suffix(node: ast.AST) -> Optional[str]:
    """The unit suffix an identifier carries (``total_w`` -> ``"w"``)."""
    name = identifier_of(node)
    if name is None:
        return None
    lowered = name.lower()
    for suffix in _SUFFIXES_BY_LENGTH:
        if lowered.endswith("_" + suffix):
            return suffix
    return None


def is_scale_literal(node: ast.AST, min_exponent: int = 3) -> bool:
    """Whether ``node`` is a bare power-of-ten constant like ``1e9``.

    Matches float and int constants whose value is exactly ``10**k`` or
    ``10**-k`` with ``abs(k) >= min_exponent`` -- the raw conversion
    factors :mod:`repro.units` exists to name.
    """
    if not isinstance(node, ast.Constant):
        return False
    value = node.value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if value <= 0 or value != value or math.isinf(value):
        return False
    exponent = math.log10(value)
    rounded = round(exponent)
    if abs(exponent - rounded) > 1e-9 or abs(rounded) < min_exponent:
        return False
    # netpower: ignore[NP-UNIT-001] -- this *is* the definition
    # of a scale factor; the checker needs the raw power of ten.
    return value == 10.0 ** rounded


def is_set_expression(node: ast.AST) -> bool:
    """Whether ``node`` syntactically produces a ``set``.

    Recognises set displays and comprehensions, ``set(...)`` /
    ``frozenset(...)`` calls, set-method calls (``union`` etc.), and
    binary set algebra whose operands are themselves set expressions.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and \
                node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference"):
            return is_set_expression(node.func.value)
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
        return (is_set_expression(node.left)
                or is_set_expression(node.right))
    return False


_N = TypeVar("_N", bound=ast.AST)
DefNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class NodeIndex:
    """One preorder walk of a parsed file, queried instead of re-walking.

    Holds every node's preorder position and depth, the positions of
    each node type, each def's and class's subtree bounds, and each
    def's directly nested defs.  Queries hand nodes back in
    :func:`ast.walk` order -- breadth first, which is shallower nodes
    first and preorder among equal depths -- so a consumer that keeps
    the first hit it sees resolves exactly as it did over ``ast.walk``.
    """

    def __init__(self, tree: ast.AST) -> None:
        nodes: List[ast.AST] = []
        depths: List[int] = []
        by_type: Dict[type, List[int]] = {}
        bounds: Dict[int, Tuple[int, int]] = {}
        nested: Dict[int, List[DefNode]] = {}
        open_scopes: List[Tuple[ast.AST, int, int]] = []
        stack: List[Tuple[ast.AST, int, Optional[ast.AST]]] = \
            [(tree, 0, None)]
        while stack:
            node, depth, owner = stack.pop()
            position = len(nodes)
            while open_scopes and open_scopes[-1][2] >= depth:
                scope, start, _depth = open_scopes.pop()
                bounds[id(scope)] = (start, position)
            nodes.append(node)
            depths.append(depth)
            kind = type(node)
            if kind in by_type:
                by_type[kind].append(position)
            else:
                by_type[kind] = [position]
            if isinstance(node, _SCOPE_TYPES):
                open_scopes.append((node, position, depth))
                if isinstance(node, _DEF_TYPES):
                    if owner is not None:
                        nested[id(owner)].append(node)
                    nested[id(node)] = []
                    owner = node
            children: List[Tuple[ast.AST, int, Optional[ast.AST]]] = []
            for name in node._fields:
                value = getattr(node, name, None)
                if isinstance(value, ast.AST):
                    children.append((value, depth + 1, owner))
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.AST):
                            children.append((item, depth + 1, owner))
            children.reverse()
            stack.extend(children)
        for scope, start, _depth in open_scopes:
            bounds[id(scope)] = (start, len(nodes))
        self._nodes = nodes
        self._depths = depths
        self._by_type = by_type
        self._bounds = bounds
        self._nested = nested

    def _walk_order(self, types: Tuple[Type[_N], ...],
                    start: int, stop: int) -> List[_N]:
        """Nodes of ``types`` at preorder positions in [start, stop)."""
        positions: List[int] = []
        for kind in types:
            found = self._by_type.get(kind, ())
            positions.extend(found[bisect_left(found, start):
                                   bisect_left(found, stop)])
        positions.sort()
        # Stable: equal depths keep preorder, which is ast.walk order.
        positions.sort(key=self._depths.__getitem__)
        nodes = self._nodes
        return cast(List[_N], [nodes[position] for position in positions])

    def of_type(self, *types: Type[_N]) -> List[_N]:
        """Every node of exactly these types, in ``ast.walk`` order."""
        return self._walk_order(types, 0, len(self._nodes))

    def within(self, scope: ast.AST, *types: Type[_N]) -> List[_N]:
        """Nodes of these types in a def's or class's subtree (the
        scope itself included), in ``ast.walk(scope)`` order."""
        start, stop = self._bounds[id(scope)]
        return self._walk_order(types, start, stop)

    def nested_defs(self, scope: ast.AST) -> List[DefNode]:
        """Defs whose nearest enclosing def is ``scope``, in preorder.

        Defs inside a nested class count; defs inside a nested def
        belong to that def.
        """
        return self._nested[id(scope)]
