"""``python -m repro lint`` — argument parsing and exit codes.

Exit status: 0 when no unsuppressed findings, 1 when findings were
reported, 2 on usage errors (unknown codes, missing paths).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .capabilities import render_capability_table
from .core import RULES, lint_paths
from .reporters import render_json, render_sarif, render_text


def default_paths() -> list[Path]:
    """The self-hosted target set: the protocol and app layers."""
    import repro

    root = Path(repro.__file__).resolve().parent
    return [root / "protocols", root / "apps"]


def build_parser(prog: str = "repro lint") -> argparse.ArgumentParser:
    """The ``repro lint`` argument parser (kept separate for tests)."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Static protocol-contract checks: purity (RPL00x), message "
            "hygiene (RPL01x), symmetry equivariance (RPL02x), flow "
            "(RPL03x, with --flow), and accounting (RPL04x). See "
            "docs/lint.md for the rule catalogue."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint "
        "(default: the installed repro protocols/ and apps/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="also run the interprocedural RPL03x flow family "
        "(amplification cycles, dead handlers, unbounded fan-out)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="comma-separated rule codes to enable exclusively",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="comma-separated rule codes to disable",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed findings (text format)",
    )
    parser.add_argument(
        "--capabilities",
        action="store_true",
        help="emit the derived per-protocol capability table as "
        "JSON and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered rule code and exit",
    )
    return parser


def _split_codes(values: list[str] | None) -> list[str] | None:
    if not values:
        return None
    codes: list[str] = []
    for value in values:
        codes.extend(c.strip() for c in value.split(",") if c.strip())
    return codes


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro lint``; returns the exit code."""
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for code, entry in sorted(RULES.items()):
            print(f"{code}  {entry.name:28s} [{entry.family}] {entry.summary}")
        return 0

    if options.capabilities:
        sys.stdout.write(render_capability_table())
        return 0

    paths = options.paths or default_paths()
    try:
        result = lint_paths(
            paths,
            select=_split_codes(options.select),
            ignore=_split_codes(options.ignore),
            flow=options.flow,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2

    if options.format == "json":
        sys.stdout.write(render_json(result))
    elif options.format == "sarif":
        sys.stdout.write(render_sarif(result))
    else:
        sys.stdout.write(render_text(result, verbose=options.verbose))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
