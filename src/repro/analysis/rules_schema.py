"""NP-SCHEMA: report payload versioning rules.

Every persisted JSON document this repository emits -- sweep reports,
bench reports, dashboards, metrics snapshots -- carries a ``schema``
version string so consumers (and the resume/merge code paths) can
refuse payloads they do not understand.  This rule makes the pattern
mandatory: a module may only call ``json.dump``/``json.dumps`` if it
also declares, at top level, a string constant whose name marks it as
the payload's schema version.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.engine import FileContext, RawFinding, rule
from repro.analysis.findings import Severity

#: A top-level ``NAME = "string"`` whose name matches this declares
#: the module's payload version (SCHEMA, FOO_SCHEMA, BAR_VERSION ...).
_SCHEMA_NAME = re.compile(r"(^|_)(SCHEMA|VERSION)(_|$)")


def declares_schema_version(tree: ast.Module) -> bool:
    """Whether the module binds a top-level schema-version string."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            targets = [node.target]
        else:
            continue
        if not isinstance(node.value, ast.Constant) or \
                not isinstance(node.value.value, str):
            continue
        if any(_SCHEMA_NAME.search(target.id) for target in targets):
            return True
    return False


@rule("NP-SCHEMA-001", Severity.ERROR,
      "json.dump in a module with no declared schema version")
def check_schema_versions(context: FileContext) -> Iterator[RawFinding]:
    """Flag ``json.dump(s)`` calls in schema-less modules.

    The fix is to declare (and emit) a version constant like
    ``SCHEMA = "repro.sweep/v1"``; transient payloads that genuinely
    need no version (diagnostics streams, embedded metadata) document
    that with a suppression reason instead.
    """
    if declares_schema_version(context.tree):
        return
    for node in context.index.of_type(ast.Call):
        name = dotted_name(node.func)
        if name in ("json.dump", "json.dumps"):
            yield (node.lineno, node.col_offset,
                   f"{name}() in a module that declares no schema "
                   f"version string; add a top-level "
                   f'``SCHEMA = "..."`` constant and stamp the '
                   f"payload with it")
