"""The repository benchmark: five wall-clock workloads behind one command.

From the repository root::

    python3 benchmarks/e2e/bench.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/bench.py {all|NAME} --seed S [--seconds T] [--trace]
                                    [--scale full|smoke]

Each workload runs in a fresh interpreter (``workloads.py``) with every
``REPRO_*`` variable removed and ``PYTHONPATH`` pointing at ``src/``, so it
measures the default code path a user gets.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of one traced unit
(see README.md).

Stdout carries a summary line and the workload's full JSON record per
workload, then, as the last line, one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  For ``all`` the
metric names are prefixed with ``<workload>/``, and ``correct`` also
requires the elect_sharded digest to equal the elect_serial digest.

Exit status: 0 when every workload reported, 1 when one crashed or timed
out, 2 when the package under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("elect_serial", "elect_sharded", "explore", "sweep", "lossy")

#: A workload process that has not finished by now is killed.
CHILD_TIMEOUT_S = 170


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_workload(name: str, args: argparse.Namespace) -> dict[str, Any] | None:
    """Measure one workload in its own process group; None on a crash."""
    command = [
        sys.executable, str(HERE / "workloads.py"), name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    child = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        # Nothing the workload started may outlive it.
        _kill_group(child.pid)
        child.wait()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"{name}: exited with status {child.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _summary(record: dict[str, Any]) -> str:
    """One readable line; layers a workload does not exercise (0) are left out."""
    metrics = "  ".join(
        f"{name}={m['value']:.6g} {m['unit']}"
        for name, m in record["metrics"].items()
        if m["value"]
    )
    raw = record["raw_metrics"].get("wall_s")
    unscaled = f"  (unscaled wall_s={raw['value']:.6g} s)" if raw else ""
    return (
        f"{record['workload']}: units={record['units']} "
        f"failed={record['failed']}/{record['attempted']}  {metrics}{unscaled}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.",
        epilog=f"workloads: {', '.join(WORKLOADS)}",
    )
    parser.add_argument("target", nargs="?", help="'all' or one workload name")
    parser.add_argument("--workload", help="one workload name")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    target = args.workload or args.target
    if target is None or (args.workload and args.target not in (None, target)):
        parser.error("name exactly one workload, or 'all'")
    if target != "all" and target not in WORKLOADS:
        parser.error(f"unknown workload {target!r}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no package to measure at {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if target == "all" else (target,)
    records: dict[str, dict[str, Any]] = {}
    for name in names:
        record = run_workload(name, args)
        if record is None:
            return 1
        records[name] = record
        for cause in record["failures"]:
            print(f"{name}: FAILED: {cause}")
        print(_summary(record))
        print(json.dumps(record))

    correct = all(record["correct"] for record in records.values())
    attempted = sum(record["attempted"] for record in records.values())
    failed = sum(record["failed"] for record in records.values())
    if target == "all":
        # The serial-equals-sharded check counts as one more attempt.
        attempted += 1
        if records["elect_serial"]["digest"] != records["elect_sharded"]["digest"]:
            print("FAILED: elect_sharded digest differs from elect_serial")
            correct = False
            failed += 1
        metrics = {
            f"{name}/{metric}": value
            for name, record in records.items()
            for metric, value in record["metrics"].items()
        }
    else:
        metrics = records[target]["metrics"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
