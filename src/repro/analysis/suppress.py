"""Suppression comments for ``netpower check``.

Two forms, both carrying an optional ``--``-separated justification
(the self-check test expects every suppression in this repository to
have one):

* ``# netpower: ignore[NP-DET-001] -- why this is sound`` suppresses
  the listed rules on one line: the comment's own line when it trails
  code, or -- when the comment stands on a line of its own -- the next
  code line below it (so a multi-line justification block can sit
  above the statement it exempts);
* ``# netpower: ignore-file[NP-API-001] -- why`` on a line of its own
  suppresses the listed rules for the whole file.

A rule token may be a full rule id (``NP-DET-001``), a family prefix
(``NP-DET``, suppressing every rule in the family), or ``*``.
Suppressions that never match a finding are reported by the engine so
stale exemptions cannot accumulate silently.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

_PATTERN = re.compile(
    r"#\s*netpower:\s*(?P<kind>ignore-file|ignore)"
    r"\[(?P<rules>[A-Za-z0-9*,\-\s]+)\]"
    r"(?:\s*--\s*(?P<reason>.*))?")


@dataclass
class Suppression:
    """One parsed suppression comment."""

    kind: str  # "ignore" (line) or "ignore-file"
    rules: Tuple[str, ...]
    line: int
    reason: str = ""
    #: Set by the engine when a finding was actually suppressed.
    matched: bool = field(default=False, compare=False)

    def covers(self, rule_id: str) -> bool:
        """Whether this suppression applies to ``rule_id``."""
        for token in self.rules:
            if token == "*" or token == rule_id:
                return True
            if rule_id.startswith(token + "-"):
                return True
        return False


def _comments(source: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(line, text)`` for every comment token in ``source``."""
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable tail; the parser rule reports the real problem.
        return


def parse_suppressions(source: str) -> List[Suppression]:
    """Extract every suppression comment from one file's source."""
    suppressions: List[Suppression] = []
    if "netpower:" not in source:
        return suppressions  # exact: _PATTERN requires this text
    for line, text in _comments(source):
        match = _PATTERN.search(text)
        if match is None:
            continue
        rules = tuple(sorted({token.strip()
                              for token in match.group("rules").split(",")
                              if token.strip()}))
        if not rules:
            continue
        suppressions.append(Suppression(
            kind=match.group("kind"), rules=rules, line=line,
            reason=(match.group("reason") or "").strip()))
    return suppressions
