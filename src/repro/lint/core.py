"""The rule framework: findings, the rule registry, suppressions, the engine.

A *rule* is a stable code (``RPL0xx``), a short name, and prose describing
the contract it enforces; a *checker* is a function that walks one parsed
module (or, for whole-run rules like the send/handle flow graph, every
module at once) and yields :class:`Finding` objects.  The engine parses
each target file once into a :class:`ModuleContext`, resolves inline
suppressions (``# repro: lint-ok[RPL0xx] <reason>`` on the finding's line
or the line above it), applies ``--select``/``--ignore`` filters, and
returns findings in a stable ``(path, line, col, code)`` order so reports
are diffable and the JSON output can be golden-tested.

The contracts themselves live in the four family modules (:mod:`purity`,
:mod:`messages`, :mod:`equivariance`, :mod:`accounting`); this module knows
nothing about any specific rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

#: Inline suppression: ``# repro: lint-ok[RPL001] reason`` or a comma list
#: ``# repro: lint-ok[RPL001, RPL004] reason``.  It silences matching
#: findings on its own line and on the next code line below it (comment
#: continuation lines in between are skipped, so a multi-line
#: justification works).
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ok\[(?P<codes>RPL\d{3}(?:\s*,\s*RPL\d{3})*)\]"
    r"\s*(?P<reason>.*?)\s*$"
)

_CODE_RE = re.compile(r"^RPL\d{3}$")


@dataclass(frozen=True)
class Rule:
    """One registered contract: stable code, name, and rationale."""

    code: str
    name: str
    family: str
    summary: str


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a source span.

    ``line``/``col`` are 1-based (``col`` is ``ast.col_offset + 1``);
    ``end_line``/``end_col`` follow the same convention and are inclusive
    of the last line, exclusive of the last column, matching ``ast``.
    """

    code: str
    path: str
    line: int
    col: int
    end_line: int
    end_col: int
    message: str
    suppressed: bool = False
    suppression_reason: str | None = None

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)


RULES: dict[str, Rule] = {}

#: Checkers over one module: ``fn(ctx) -> Iterable[Finding]``.
MODULE_CHECKERS: list[Callable[["ModuleContext"], Iterable[Finding]]] = []

#: Checkers over the whole run (cross-module flow analyses):
#: ``fn(contexts) -> Iterable[Finding]``.
PROJECT_CHECKERS: list[
    Callable[[Sequence["ModuleContext"]], Iterable[Finding]]
] = []


def rule(code: str, name: str, family: str, summary: str) -> Rule:
    """Register one rule; returns it so families can keep a handle."""
    if not _CODE_RE.match(code):
        raise ValueError(f"rule code {code!r} is not of the form RPL0xx")
    if code in RULES:
        raise ValueError(f"duplicate rule code {code}")
    entry = Rule(code, name, family, summary)
    RULES[code] = entry
    return entry


_ModuleChecker = Callable[["ModuleContext"], Iterable[Finding]]
_ProjectChecker = Callable[[Sequence["ModuleContext"]], Iterable[Finding]]


def module_checker(fn: _ModuleChecker) -> _ModuleChecker:
    """Decorator: register a per-module checker."""
    MODULE_CHECKERS.append(fn)
    return fn


def project_checker(fn: _ProjectChecker) -> _ProjectChecker:
    """Decorator: register a whole-run checker."""
    PROJECT_CHECKERS.append(fn)
    return fn


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The last attribute (or the bare name) of a Name/Attribute chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class ModuleContext:
    """One parsed target file plus its suppression table."""

    def __init__(self, path: str | Path, source: str | None = None) -> None:
        self.path = Path(path)
        if source is None:
            source = self.path.read_text()
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.display = _display_path(self.path)
        self._lines = source.splitlines()
        #: line number -> {code: reason}
        self.suppressions: dict[int, dict[str, str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            reason = match.group("reason")
            entry = self.suppressions.setdefault(lineno, {})
            for code in re.split(r"\s*,\s*", match.group("codes")):
                entry[code] = reason

    def suppression_for(self, code: str, line: int) -> str | None:
        """The suppression reason covering ``code`` at ``line``, if any.

        A suppression covers its own line and the next code line below,
        looking up through any contiguous block of comment-only lines.
        """
        entry = self.suppressions.get(line)
        if entry is not None and code in entry:
            return entry[code]
        candidate = line - 1
        while candidate >= 1:
            entry = self.suppressions.get(candidate)
            if entry is not None and code in entry:
                return entry[code]
            text = self._lines[candidate - 1].strip()
            if not text.startswith("#"):
                break
            candidate -= 1
        return None

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        """Build a finding at ``node``, resolving suppression."""
        if code not in RULES:
            raise ValueError(f"finding uses unregistered rule code {code}")
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        end_line = getattr(node, "end_lineno", None) or line
        end_col_offset = getattr(node, "end_col_offset", None)
        end_col = (end_col_offset + 1) if end_col_offset is not None else col
        reason = self.suppression_for(code, line)
        return Finding(
            code=code,
            path=self.display,
            line=line,
            col=col,
            end_line=end_line,
            end_col=end_col,
            message=message,
            suppressed=reason is not None,
            suppression_reason=reason,
        )


def _display_path(path: Path) -> str:
    """POSIX path relative to the current directory when possible."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for finding in self.findings:
            tally[finding.code] = tally.get(finding.code, 0) + 1
        return dict(sorted(tally.items()))

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return sorted(files)


def _normalise_codes(
    codes: Iterable[str] | None, flag: str
) -> set[str] | None:
    if codes is None:
        return None
    result = set(codes)
    unknown = sorted(code for code in result if code not in RULES)
    if unknown:
        raise ValueError(
            f"unknown rule code(s) for {flag}: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    return result


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    flow: bool = False,
) -> LintResult:
    """Run every registered rule over ``paths``.

    ``select`` keeps only the listed codes; ``ignore`` drops the listed
    codes (applied after ``select``).  Suppressed findings are filtered
    the same way but reported separately, so reporters can show what the
    inline ``lint-ok`` comments are hiding.  ``flow=True`` additionally
    runs the interprocedural RPL03x family (``repro lint --flow``),
    which is opt-in because it analyses the whole import closure of the
    targets rather than the target files alone.
    """
    selected = _normalise_codes(select, "--select")
    ignored = _normalise_codes(ignore, "--ignore")
    contexts = [ModuleContext(f) for f in iter_python_files(paths)]
    raw: list[Finding] = []
    for ctx in contexts:
        for checker in MODULE_CHECKERS:
            raw.extend(checker(ctx))
    for project_check in PROJECT_CHECKERS:
        raw.extend(project_check(contexts))
    if flow:
        from .flow import flow_findings

        raw.extend(flow_findings(contexts))

    result = LintResult(files=len(contexts))
    for finding in sorted(raw, key=lambda f: f.sort_key):
        if selected is not None and finding.code not in selected:
            continue
        if ignored is not None and finding.code in ignored:
            continue
        if finding.suppressed:
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result
