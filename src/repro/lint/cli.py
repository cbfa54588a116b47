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
        "JSON and exit (regenerates src/repro/verification/"
        "capabilities.json content)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="with --capabilities: exit 1 if the checked-in "
        "capabilities.json differs from the live derivation "
        "(drift gate for CI)",
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
        if options.check:
            return check_capability_drift()
        sys.stdout.write(render_capability_table())
        return 0

    if options.check:
        print(
            "repro lint: error: --check requires --capabilities",
            file=sys.stderr,
        )
        return 2

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


def check_capability_drift() -> int:
    """``--capabilities --check``: diff the snapshot against the live
    derivation; exit 1 on staleness so CI catches un-regenerated tables."""
    from .capabilities import (
        derive_capability_table,
        load_packaged_table,
        packaged_table_path,
    )

    live = derive_capability_table()
    packaged = load_packaged_table()
    if packaged is None:
        print(
            f"capability snapshot missing: {packaged_table_path()}",
            file=sys.stderr,
        )
        return 1
    if packaged == live:
        print(f"capabilities.json is current ({len(live['protocols'])} "
              "protocols)")
        return 0
    print(
        "capabilities.json is stale; regenerate with "
        "`python -m repro lint --capabilities > "
        "src/repro/verification/capabilities.json`",
        file=sys.stderr,
    )
    stale = sorted(
        set(live["protocols"]) ^ set(packaged.get("protocols", {}))
    )
    for name in sorted(live["protocols"]):
        if name in packaged.get("protocols", {}) and (
            live["protocols"][name] != packaged["protocols"][name]
        ):
            stale.append(name)
    for name in sorted(set(stale)):
        print(f"  drifted: {name}", file=sys.stderr)
    if packaged.get("version") != live.get("version"):
        print(
            f"  schema version: packaged {packaged.get('version')} "
            f"vs live {live.get('version')}",
            file=sys.stderr,
        )
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
