"""NP-UNIT: physical-unit discipline rules.

The power model mixes pJ/bit, nJ/packet, watts, and Tbps (paper §4);
at fleet scale a silent pJ-vs-W mix-up corrupts every downstream
conclusion.  The library's contract (:mod:`repro.units`) is that all
internal computation happens in SI base units and every conversion
goes through a *named* helper.  These rules enforce the contract
syntactically:

* **NP-UNIT-001** -- bare power-of-ten scale factors (``* 1e9``,
  ``/ 1e-12``) outside :mod:`repro.units`;
* **NP-UNIT-002** -- additive arithmetic or ordering comparisons
  between identifiers whose unit suffixes disagree (``_w`` vs
  ``_gbps``, ``_gbps`` vs ``_bps``);
* **NP-UNIT-003** -- exact float equality on power/energy values.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.astutil import (UNIT_SUFFIXES, is_scale_literal,
                                    unit_suffix)
from repro.analysis.engine import FileContext, RawFinding, rule
from repro.analysis.findings import Severity


@rule("NP-UNIT-001", Severity.ERROR,
      "bare power-of-ten scale factor; use a repro.units helper")
def check_scale_literals(context: FileContext) -> Iterator[RawFinding]:
    """Flag ``x * 1e9``-style conversions outside ``repro.units``.

    Only multiplication/division operands count -- tolerances such as
    ``abs(a - b) < 1e-9`` and epsilon clamps like ``max(x, 1e-6)`` are
    comparisons or call arguments and stay legal.
    """
    if context.unit_literals_allowed:
        return
    for node in context.index.of_type(ast.BinOp):
        if isinstance(node.op, (ast.Mult, ast.Div)):
            for operand in (node.left, node.right):
                if is_scale_literal(operand):
                    yield (operand.lineno, operand.col_offset,
                           f"bare scale factor "
                           f"{ast.unparse(operand)} in unit "
                           f"arithmetic; use a named repro.units "
                           f"conversion or constant")
        if isinstance(node.op, ast.Pow) and \
                isinstance(node.left, ast.Constant) and \
                node.left.value == 10:
            yield (node.lineno, node.col_offset,
                   "10**n scale factor; use a named repro.units "
                   "conversion or constant")


def _described(suffix: str) -> str:
    """Human description of a suffix: ``"w" -> "_w (power)"``."""
    dimension, _ = UNIT_SUFFIXES[suffix]
    return f"_{suffix} ({dimension})"


def _operand_units(left: ast.expr, right: ast.expr
                   ) -> Optional[Tuple[str, str]]:
    """Both operands' unit suffixes, or ``None`` if either is bare."""
    left_suffix = unit_suffix(left)
    right_suffix = unit_suffix(right)
    if left_suffix is None or right_suffix is None:
        return None
    return left_suffix, right_suffix


@rule("NP-UNIT-002", Severity.ERROR,
      "arithmetic mixing identifiers with different unit suffixes")
def check_mixed_units(context: FileContext) -> Iterator[RawFinding]:
    """Flag ``+``/``-`` and ``<``-style comparisons across units.

    Additive arithmetic and ordering only make sense between operands
    of the same dimension *and* scale; ``power_w + energy_j`` or
    ``rate_gbps < rate_bps`` must route through a ``repro.units``
    conversion first.  Multiplication and division are exempt (they
    legitimately change dimension: W x s = J).
    """
    for node in context.index.of_type(ast.BinOp, ast.Compare):
        pairs = []
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.Add, ast.Sub)):
            pairs.append((node, node.left, node.right, "arithmetic"))
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 and \
                isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt,
                                         ast.GtE)):
            pairs.append((node, node.left, node.comparators[0],
                          "comparison"))
        for site, left, right, kind in pairs:
            units = _operand_units(left, right)
            if units is None:
                continue
            left_suffix, right_suffix = units
            if left_suffix != right_suffix:
                yield (site.lineno, site.col_offset,
                       f"{kind} mixes {_described(left_suffix)} with "
                       f"{_described(right_suffix)}; convert through "
                       f"repro.units first")


@rule("NP-UNIT-003", Severity.WARNING,
      "exact float equality on a power/energy value")
def check_float_equality(context: FileContext) -> Iterator[RawFinding]:
    """Flag ``==`` / ``!=`` where an operand is a power/energy value.

    Fitted watts and joules are floats from regressions and unit
    conversions; exact equality is fragile.  Compare with a tolerance
    (``math.isclose``) or, where exact-zero semantics really are
    intended (a sensor that never reported), suppress with a reason.
    """
    for node in context.index.of_type(ast.Compare):
        if not (len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Eq, ast.NotEq))):
            continue
        for operand in (node.left, node.comparators[0]):
            suffix = unit_suffix(operand)
            if suffix is None:
                continue
            if UNIT_SUFFIXES[suffix][0] in ("power", "energy"):
                yield (node.lineno, node.col_offset,
                       f"exact float equality on {_described(suffix)} "
                       f"value; use a tolerance (math.isclose) "
                       f"instead")
                break
