"""Experiment plumbing: repeated runs and structured reports.

An experiment (one row of DESIGN.md §6) runs a sweep, condenses it into
tables, and evaluates *checks* — executable versions of the paper's claims
("messages grow linearly", "𝒢 beats ℱ under the chain", "measured time ≥
N/16d").  The same report objects back both the pytest benchmarks (which
assert ``report.passed``) and the EXPERIMENTS.md generator (which renders
them).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import render_table
from repro.core.results import ElectionResult


@dataclass(frozen=True, slots=True)
class Check:
    """One executable claim with its verdict."""

    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    """Everything one experiment produced."""

    experiment: str
    claim: str
    tables: list[tuple[str, Sequence[str], list[Sequence[Any]]]] = field(
        default_factory=list
    )
    findings: list[tuple[str, Any]] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every check held."""
        return all(check.passed for check in self.checks)

    def add_table(
        self, title: str, headers: Sequence[str], rows: list[Sequence[Any]]
    ) -> None:
        """Attach one result table."""
        self.tables.append((title, headers, rows))

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record one claim verdict."""
        self.checks.append(Check(name, bool(passed), detail))

    def find(self, key: str, value: Any) -> None:
        """Record one headline number."""
        self.findings.append((key, value))

    def render(self) -> str:
        """Full plain-text report (used verbatim in EXPERIMENTS.md)."""
        lines = [f"### {self.experiment}", "", f"**Paper claim.** {self.claim}", ""]
        for title, headers, rows in self.tables:
            lines.append(f"**{title}**")
            lines.append("")
            lines.append(render_table(headers, rows))
            lines.append("")
        if self.findings:
            lines.append("**Measured.**")
            for key, value in self.findings:
                lines.append(f"- {key}: {value}")
            lines.append("")
        lines.append("**Checks.**")
        for check in self.checks:
            mark = "PASS" if check.passed else "FAIL"
            suffix = f" — {check.detail}" if check.detail else ""
            lines.append(f"- [{mark}] {check.name}{suffix}")
        lines.append("")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        """Raise AssertionError listing the failed checks (for pytest)."""
        failed = [c for c in self.checks if not c.passed]
        if failed:
            details = "; ".join(f"{c.name} ({c.detail})" for c in failed)
            raise AssertionError(f"{self.experiment}: failed checks: {details}")

    def to_payload(
        self, *, tables: dict[str, int] | None = None
    ) -> dict[str, Any]:
        """JSON-able snapshot: findings + check verdicts (+ named tables).

        This is the shape the committed ``BENCH_*.json`` snapshots use
        (and what the trend gate walks): ``findings`` as a mapping,
        ``checks`` as name → bool.  ``tables`` selects report tables to
        embed, as ``{json_key: table_index}``.
        """
        payload: dict[str, Any] = {
            "experiment": self.experiment,
            "findings": dict(self.findings),
            "checks": {check.name: check.passed for check in self.checks},
        }
        for key, index in (tables or {}).items():
            title, headers, rows = self.tables[index]
            payload[key] = {
                "title": title,
                "header": list(headers),
                "rows": [list(row) for row in rows],
            }
        return payload


def messages_summary(results: Sequence[ElectionResult]) -> Summary:
    """Summary of total messages across repeats."""
    return summarize([r.messages_total for r in results])


def time_summary(results: Sequence[ElectionResult]) -> Summary:
    """Summary of election time across repeats."""
    return summarize([r.election_time for r in results])
