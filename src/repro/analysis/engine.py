"""The rule engine behind ``netpower check``.

Dependency-free (stdlib ``ast`` + ``tokenize`` only).  Two kinds of
rules run here:

* a **file rule** is a function registered with :func:`rule` that
  inspects one parsed file -- a :class:`FileContext` -- and yields
  ``(line, col, message)`` tuples;
* a **project rule** is a function registered with
  :func:`project_rule` that inspects the *whole* checked tree at once
  -- a :class:`ProjectContext` carrying every parsed file plus the
  lazily-built module/call graph (:mod:`.graph`) and interprocedural
  taint analysis (:mod:`.dataflow`) -- and yields ``(path, line, col,
  message)`` tuples.  The NP-FLOW / NP-ASYNC / NP-MUT families live
  here: they see a wall-clock read laundered through a helper in
  another module, which no per-file rule can.

The engine parses each file once, runs every selected rule, applies
``# netpower: ignore[...]`` suppressions (:mod:`.suppress`) uniformly
to both kinds of findings, and returns everything in stable sorted
order.

Scoping follows the repository's determinism contract:

* **NP-DET** rules only fire inside the deterministic packages
  (``core/``, ``network/``, ``sweep/``, ``validation/``,
  ``monitor/``, ``serve/``, ``telemetry/``), with a wall-clock
  allowlist for the sanctioned timing paths (``obs/tracing.py``,
  ``bench.py``, ``sweep/runner.py``, and the serve layer's latency
  histograms in ``serve/app.py``).
* **NP-FLOW** sinks are the packages whose *outputs* must be
  byte-identical (:attr:`CheckConfig.flow_sinks`); the taint
  propagator honors the same wall-clock allowlist at the source end.
* **NP-UNIT**, **NP-API**, **NP-SCHEMA**, and **NP-OBS** rules apply
  to every checked file, except that :mod:`repro.units` itself may
  spell out the raw powers of ten it exists to name, and the ``obs``
  implementing module may forward span names as parameters.

Paths are reported relative to the ``repro`` package root (e.g.
``core/model.py``), so reports do not depend on where the tree is
checked out.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Tuple)

from repro.analysis.findings import Finding, Severity
from repro.analysis.suppress import Suppression, parse_suppressions

if TYPE_CHECKING:
    from repro.analysis.dataflow import TaintAnalysis
    from repro.analysis.graph import ProjectGraph

#: What a file rule yields: ``(line, col, message)``.
RawFinding = Tuple[int, int, str]
#: What a project rule yields: ``(path, line, col, message)``.
ProjectRawFinding = Tuple[str, int, int, str]


@dataclass(frozen=True)
class CheckConfig:
    """Which rules run where.

    The defaults encode this repository's layout; tests construct
    narrower configs to point rules at fixture files.
    """

    #: Top-level package directories where the NP-DET family applies.
    det_packages: Tuple[str, ...] = (
        "core", "network", "sweep", "validation", "monitor", "serve",
        "telemetry")
    #: Package-relative files where wall-clock reads are sanctioned.
    wallclock_allow: Tuple[str, ...] = (
        "obs/tracing.py", "bench.py", "sweep/runner.py", "serve/app.py")
    #: Package-relative files exempt from NP-UNIT scale-literal checks.
    unit_literal_exempt: Tuple[str, ...] = ("units.py",)
    #: Package-relative files exempt from NP-OBS literal-name checks:
    #: the observability module whose helpers forward a ``name``
    #: parameter by design.
    obs_forwarding_exempt: Tuple[str, ...] = ("obs/tracing.py",)
    #: Path prefixes whose functions are NP-FLOW taint *sinks*: the
    #: code whose outputs the determinism contract covers.  A trailing
    #: ``/`` matches a package, a full file name matches one file.
    flow_sinks: Tuple[str, ...] = (
        "core/", "network/", "sweep/", "validation/", "monitor/",
        "serve/schemas.py", "serve/cache.py", "serve/batching.py")
    #: Package-relative files exempt from the NP-ASYNC shared-state
    #: rule: the batcher *is* the sanctioned cross-task drain.
    async_state_exempt: Tuple[str, ...] = ("serve/batching.py",)
    #: Package-relative files allowed to call ``predict_trace`` from
    #: loop-reachable code (the batcher evaluates the grouped matrix
    #: call inline by design; everything else must go through it).
    async_predict_allow: Tuple[str, ...] = ("serve/batching.py",)
    #: Package-relative files allowed to write ``FleetState`` column
    #: arrays: the engine's own patch/refresh kernels.
    mut_allow: Tuple[str, ...] = ("network/engine.py",)
    #: Rule ids or family prefixes to run; ``None`` runs everything.
    select: Optional[Tuple[str, ...]] = None

    def rule_enabled(self, rule_id: str) -> bool:
        """Whether ``rule_id`` is within the selected set."""
        if self.select is None:
            return True
        return any(rule_id == token or rule_id.startswith(token + "-")
                   for token in self.select)

    def fingerprint(self) -> str:
        """A stable text form of every scoping knob (cache key part)."""
        parts = [
            ",".join(self.det_packages),
            ",".join(self.wallclock_allow),
            ",".join(self.unit_literal_exempt),
            ",".join(self.obs_forwarding_exempt),
            ",".join(self.flow_sinks),
            ",".join(self.async_state_exempt),
            ",".join(self.async_predict_allow),
            ",".join(self.mut_allow),
            ",".join(self.select) if self.select is not None else "*",
        ]
        return "|".join(parts)


@dataclass
class FileContext:
    """One parsed file handed to every rule."""

    path: str  #: package-relative posix path, e.g. ``core/model.py``
    source: str
    tree: ast.Module
    config: CheckConfig

    @property
    def in_det_scope(self) -> bool:
        """Whether the NP-DET family applies to this file."""
        head = self.path.split("/", 1)[0]
        return head in self.config.det_packages

    @property
    def in_flow_sink_scope(self) -> bool:
        """Whether this file's functions are NP-FLOW taint sinks."""
        if self.path in self.config.wallclock_allow:
            return False
        for prefix in self.config.flow_sinks:
            if prefix.endswith("/"):
                if self.path.startswith(prefix):
                    return True
            elif self.path == prefix:
                return True
        return False

    @property
    def wallclock_allowed(self) -> bool:
        """Whether this file is a sanctioned wall-clock timing path."""
        return self.path in self.config.wallclock_allow

    @property
    def unit_literals_allowed(self) -> bool:
        """Whether bare scale literals are sanctioned here."""
        return self.path in self.config.unit_literal_exempt

    @property
    def obs_forwarding_allowed(self) -> bool:
        """Whether dynamic span names are sanctioned here."""
        return self.path in self.config.obs_forwarding_exempt


@dataclass
class ProjectContext:
    """Every parsed file of one check run, plus the analysis layers.

    The module graph and taint analysis are built once on first use
    and shared by every project rule, so a whole-tree check pays for
    symbol resolution and the taint fixed point exactly once.
    """

    files: Dict[str, FileContext]  #: path -> context, in sorted order
    config: CheckConfig
    _graph: Optional["ProjectGraph"] = field(default=None, repr=False)
    _taint: Optional["TaintAnalysis"] = field(default=None, repr=False)

    @property
    def graph(self) -> "ProjectGraph":
        """The module/symbol resolver and call graph (built lazily)."""
        if self._graph is None:
            from repro.analysis.graph import build_graph
            self._graph = build_graph(self.files)
        return self._graph

    @property
    def taint(self) -> "TaintAnalysis":
        """The interprocedural taint fixed point (built lazily)."""
        if self._taint is None:
            from repro.analysis.dataflow import analyze
            self._taint = analyze(self.graph, self.config)
        return self._taint


@dataclass(frozen=True)
class Rule:
    """A registered file rule: id, severity, summary, and its check."""

    rule_id: str
    severity: Severity
    summary: str
    check: Callable[[FileContext], Iterator[RawFinding]]
    #: An example finding message for ``--explain``.
    example: str = ""


@dataclass(frozen=True)
class ProjectRule:
    """A registered whole-program rule."""

    rule_id: str
    severity: Severity
    summary: str
    check: Callable[[ProjectContext], Iterator[ProjectRawFinding]]
    #: An example finding message for ``--explain``.
    example: str = ""


_REGISTRY: Dict[str, Rule] = {}
_PROJECT_REGISTRY: Dict[str, ProjectRule] = {}

_FileCheck = Callable[[FileContext], Iterator[RawFinding]]
_ProjectCheck = Callable[[ProjectContext], Iterator[ProjectRawFinding]]


def rule(rule_id: str, severity: Severity, summary: str,
         example: str = "") -> Callable[[_FileCheck], _FileCheck]:
    """Class-less file-rule registration decorator."""
    def register(check: _FileCheck) -> _FileCheck:
        if rule_id in _REGISTRY or rule_id in _PROJECT_REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = Rule(rule_id=rule_id, severity=severity,
                                  summary=summary, check=check,
                                  example=example)
        return check
    return register


def project_rule(rule_id: str, severity: Severity, summary: str,
                 example: str = "") -> Callable[[_ProjectCheck],
                                                _ProjectCheck]:
    """Whole-program rule registration decorator."""
    def register(check: _ProjectCheck) -> _ProjectCheck:
        if rule_id in _REGISTRY or rule_id in _PROJECT_REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _PROJECT_REGISTRY[rule_id] = ProjectRule(
            rule_id=rule_id, severity=severity, summary=summary,
            check=check, example=example)
        return check
    return register


def all_rules() -> List[Rule]:
    """Every registered file rule, sorted by id (stable listing order)."""
    _load_rule_modules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def all_project_rules() -> List[ProjectRule]:
    """Every registered project rule, sorted by id."""
    _load_rule_modules()
    return [_PROJECT_REGISTRY[rule_id]
            for rule_id in sorted(_PROJECT_REGISTRY)]


def find_rule(rule_id: str) -> Optional[object]:
    """The registered rule with this id, file or project, else None."""
    _load_rule_modules()
    if rule_id in _REGISTRY:
        return _REGISTRY[rule_id]
    return _PROJECT_REGISTRY.get(rule_id)


def ruleset_version() -> str:
    """A stable token naming the loaded rule set (cache invalidation).

    Changes whenever a rule is added, removed, or its summary text is
    revised -- bump a rule's summary when its behaviour changes so
    stale cached findings cannot survive a rule edit.
    """
    parts = [f"{r.rule_id}={r.summary}" for r in all_rules()]
    parts += [f"{r.rule_id}={r.summary}" for r in all_project_rules()]
    return ";".join(sorted(parts))


def _load_rule_modules() -> None:
    """Import the rule modules so their decorators register."""
    from repro.analysis import (rules_api, rules_async,  # noqa: F401
                                rules_det, rules_flow, rules_mut,
                                rules_obs, rules_schema, rules_unit)


@dataclass
class CheckResult:
    """The outcome of checking one or more files."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by a matching suppression, in sorted order.
    suppressed: List[Finding] = field(default_factory=list)
    #: ``(path, line, rules)`` of suppressions that matched nothing.
    unused_suppressions: List[Tuple[str, int, Tuple[str, ...]]] = \
        field(default_factory=list)
    #: ``(path, line, rules)`` of suppressions whose ``-- reason``
    #: justification is missing, empty, or whitespace.
    unjustified_suppressions: List[Tuple[str, int, Tuple[str, ...]]] = \
        field(default_factory=list)
    #: Files checked, package-relative, sorted.
    paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the check passed (no unsuppressed findings)."""
        return not self.findings

    @property
    def clean(self) -> bool:
        """Whether the run should exit 0: no findings and no
        stale or unjustified suppressions."""
        return (not self.findings and not self.unused_suppressions
                and not self.unjustified_suppressions)

    def merge(self, other: "CheckResult") -> None:
        """Fold another (single-file) result into this one."""
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.unused_suppressions.extend(other.unused_suppressions)
        self.unjustified_suppressions.extend(
            other.unjustified_suppressions)
        self.paths.extend(other.paths)

    def finalize(self) -> "CheckResult":
        """Sort everything into the stable report order."""
        self.findings.sort(key=lambda f: f.sort_key)
        self.suppressed.sort(key=lambda f: f.sort_key)
        self.unused_suppressions.sort()
        self.unjustified_suppressions.sort()
        self.paths.sort()
        return self


class SuppressionIndex:
    """One file's suppression comments, ready to match findings.

    Wraps :func:`repro.analysis.suppress.parse_suppressions` with the
    line-targeting convention: a trailing comment covers its own line,
    a comment-only line covers the next code line below it (so a
    multi-line justification block sits above the statement it
    exempts), and ``ignore-file`` covers everything.
    """

    def __init__(self, path: str, source: str,
                 config: Optional[CheckConfig] = None):
        self.path = path
        self.config = config
        self.suppressions = parse_suppressions(source)
        lines = source.splitlines()

        def effective_line(line: int) -> int:
            text = lines[line - 1].lstrip() if line - 1 < len(lines) else ""
            if not text.startswith("#"):
                return line
            for index in range(line, len(lines)):
                stripped = lines[index].strip()
                if stripped and not stripped.startswith("#"):
                    return index + 1
            return line

        self._file_level: List[Suppression] = [
            s for s in self.suppressions if s.kind == "ignore-file"]
        self._by_line: Dict[int, List[Suppression]] = {}
        for suppression in self.suppressions:
            if suppression.kind == "ignore":
                self._by_line.setdefault(
                    effective_line(suppression.line), []).append(suppression)

    def matches(self, rule_id: str, line: int) -> bool:
        """Whether a finding at ``line`` is suppressed (marks usage)."""
        silencers = [s for s in self._by_line.get(line, ())
                     if s.covers(rule_id)]
        silencers.extend(s for s in self._file_level
                         if s.covers(rule_id))
        for suppression in silencers:
            suppression.matched = True
        return bool(silencers)

    def _in_selected_scope(self, suppression: Suppression) -> bool:
        """Whether a ``--select`` run can judge this suppression.

        A suppression for a family that is not selected cannot match
        anything this run, so it is neither unused nor unjustified
        here -- the full run is the one that audits it.
        """
        config = self.config
        if config is None or config.select is None:
            return True
        for rule_name in suppression.rules:
            if rule_name == "*":
                return True
            for token in config.select:
                if rule_name == token or \
                        rule_name.startswith(token + "-") or \
                        token.startswith(rule_name + "-"):
                    return True
        return False

    def unused(self) -> List[Tuple[str, int, Tuple[str, ...]]]:
        """Suppressions that silenced nothing, in line order."""
        return [(self.path, s.line, s.rules)
                for s in self.suppressions
                if not s.matched and self._in_selected_scope(s)]

    def unjustified(self) -> List[Tuple[str, int, Tuple[str, ...]]]:
        """Suppressions with an empty or whitespace ``-- reason``."""
        return [(self.path, s.line, s.rules)
                for s in self.suppressions
                if not s.reason.strip() and self._in_selected_scope(s)]


def parse_file(source: str, path: str,
               config: CheckConfig) -> Tuple[Optional[FileContext],
                                             Optional[Finding]]:
    """Parse one file into a :class:`FileContext`, or an NP-PARSE finding."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return None, Finding(
            rule_id="NP-PARSE", severity=Severity.ERROR, path=path,
            line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            message=f"could not parse file: {exc.msg}")
    return FileContext(path=path, source=source, tree=tree,
                       config=config), None


def run_file_rules(context: FileContext) -> List[Finding]:
    """Every enabled file rule over one file; raw (pre-suppression)."""
    findings: List[Finding] = []
    for registered in all_rules():
        if not context.config.rule_enabled(registered.rule_id):
            continue
        for line, col, message in registered.check(context):
            findings.append(Finding(
                rule_id=registered.rule_id,
                severity=registered.severity, path=context.path,
                line=line, col=col, message=message))
    findings.sort(key=lambda f: f.sort_key)
    return findings


def run_project_rules(project: ProjectContext) -> Dict[str, List[Finding]]:
    """Every enabled project rule; raw findings grouped by file path.

    Every checked path gets an entry (possibly empty), so callers can
    cache "no findings for this file" as a positive fact.
    """
    by_path: Dict[str, List[Finding]] = {path: [] for path in project.files}
    for registered in all_project_rules():
        if not project.config.rule_enabled(registered.rule_id):
            continue
        for path, line, col, message in registered.check(project):
            by_path.setdefault(path, []).append(Finding(
                rule_id=registered.rule_id,
                severity=registered.severity, path=path, line=line,
                col=col, message=message))
    for findings in by_path.values():
        findings.sort(key=lambda f: f.sort_key)
    return by_path


def apply_suppressions(path: str, source: str,
                       findings: Sequence[Finding],
                       config: Optional[CheckConfig] = None,
                       ) -> CheckResult:
    """Split one file's raw findings by its suppression comments."""
    result = CheckResult(paths=[path])
    index = SuppressionIndex(path, source, config)
    for finding in findings:
        if index.matches(finding.rule_id, finding.line):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    result.unused_suppressions.extend(index.unused())
    result.unjustified_suppressions.extend(index.unjustified())
    return result.finalize()


def check_sources(sources: Mapping[str, str],
                  config: Optional[CheckConfig] = None) -> CheckResult:
    """Check a set of in-memory files as one project.

    Keys are package-relative posix paths; rules use them for scoping,
    so fixture tests pick paths like ``core/snippet.py`` to opt into
    the deterministic scope.
    """
    _load_rule_modules()
    config = config if config is not None else CheckConfig()
    total = CheckResult()
    contexts: Dict[str, FileContext] = {}
    raw: Dict[str, List[Finding]] = {}
    for path in sorted(sources):
        context, parse_finding = parse_file(sources[path], path, config)
        if context is None:
            assert parse_finding is not None
            file_result = CheckResult(paths=[path],
                                      findings=[parse_finding])
            total.merge(file_result)
            continue
        contexts[path] = context
        raw[path] = run_file_rules(context)
    if contexts:
        project = ProjectContext(files=contexts, config=config)
        for path, project_findings in run_project_rules(project).items():
            raw[path].extend(project_findings)
    for path, findings in raw.items():
        total.merge(apply_suppressions(path, sources[path], findings,
                                       config))
    return total.finalize()


def check_source(source: str, path: str,
                 config: Optional[CheckConfig] = None) -> CheckResult:
    """Check one file's source text (project rules see just this file)."""
    return check_sources({path: source}, config)


def _relative_path(file_path: Path) -> str:
    """The package-relative report path for ``file_path``.

    Everything after the last ``repro`` path component, or the file
    name when the file does not live under a ``repro`` package (e.g.
    fixture files in a temp directory).
    """
    parts = file_path.as_posix().split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return parts[-1]


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files and directories into a sorted ``*.py`` file list."""
    files = []
    for path in paths:
        if path.is_dir():
            files.extend(p for p in path.rglob("*.py"))
        else:
            files.append(path)
    return sorted(set(files))


def read_sources(paths: Iterable[object]) -> Dict[str, str]:
    """Read every ``*.py`` under ``paths`` into a path -> source map."""
    sources: Dict[str, str] = {}
    for file_path in discover_files([Path(str(p)) for p in paths]):
        sources[_relative_path(file_path)] = \
            file_path.read_text(encoding="utf-8")
    return sources


def check_paths(paths: Iterable[object],
                config: Optional[CheckConfig] = None) -> CheckResult:
    """Check every ``*.py`` file under ``paths`` (files or dirs)."""
    return check_sources(read_sources(paths), config)
