"""AST-based invariant checking for the netpower codebase.

``repro.analysis`` is the static-analysis backstop behind the
repository's load-bearing conventions (docs/STATIC_ANALYSIS.md):

* **determinism** -- seeded RNGs only, no wall-clock reads outside the
  sanctioned timing paths, no hash-ordered set iteration (NP-DET);
  plus whole-program taint tracking that catches the same entropy
  laundered through helpers in other modules (NP-FLOW);
* **event-loop safety** -- no blocking calls, dropped tasks, or
  cross-task shared-state races in the serve layer (NP-ASYNC);
* **engine integrity** -- FleetState columns are only written by the
  engine's own patch/refresh kernels (NP-MUT);
* **unit discipline** -- every scale conversion goes through a named
  :mod:`repro.units` helper and unit-suffixed values never mix
  (NP-UNIT);
* **schema discipline** -- every persisted JSON payload is versioned
  (NP-SCHEMA), and the public surface stays documented and annotated
  (NP-API).

Dependency-free (stdlib ``ast``/``tokenize``).  Surfaced as
``netpower check`` and as this importable API::

    from repro.analysis import CheckConfig, check_paths, check_source

    result = check_paths(["src/"])
    assert result.clean, result.findings

Every run is cold and parses the full tree: each file is walked once
into an index (:class:`~repro.analysis.astutil.NodeIndex`) that every
rule and the call graph query, so no result cache is needed.
"""

from repro.analysis.engine import (CheckConfig, CheckResult, FileContext,
                                   ProjectContext, Rule, all_project_rules,
                                   all_rules, check_paths, check_source,
                                   check_sources)
from repro.analysis.findings import Finding, Severity
from repro.analysis.reporters import (REPORT_SCHEMA, render_explain,
                                      render_json, render_rule_listing,
                                      render_text)
from repro.analysis.suppress import Suppression, parse_suppressions

__all__ = [
    "CheckConfig",
    "CheckResult",
    "FileContext",
    "Finding",
    "ProjectContext",
    "REPORT_SCHEMA",
    "Rule",
    "Severity",
    "Suppression",
    "all_project_rules",
    "all_rules",
    "check_paths",
    "check_source",
    "check_sources",
    "parse_suppressions",
    "render_explain",
    "render_json",
    "render_rule_listing",
    "render_text",
]
