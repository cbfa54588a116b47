"""Calibrate the benchmark's bounds: repeated sets of fresh-process runs.

From the repository root::

    python3 benchmarks/e2e/calibrate.py

Set ``k`` (of two) runs every workload for ``run_seconds`` from
BENCHMARK.json once per seed ``1000*k + 1 .. 1000*k + 10`` (workloads
interleaved, so drift over the session hits all of them alike), then runs
each workload traced on the first seed of the set.  Per set,
workload and end-to-end metric it records the median, quartiles
(``statistics.quantiles(values, n=4)``) and the relative IQR (quartile
distance over the median) of the reported metrics, and the same for the
unscaled ones (``raw_metrics``), and proposes each metric's bound by one
rule:

    bound = clamp(3 x the largest relative IQR over workloads and sets,
                  FLOOR[metric], CAP)

Three times the IQR keeps every observed spread under a third of its bound.
The floor keeps a near-constant metric from getting a bound tighter than
drift between sessions, and gives ``setup_s`` the largest bound; CAP is the
largest bound the benchmark may declare.  A metric whose 3 x IQR exceeds
CAP is reported as unsteady.

Writes ``benchmarks/e2e/calibration.json``.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from bench import HERE, ROOT, WORKLOADS

FLOOR = {
    "wall_s": 0.05,
    "setup_s": 0.25,
    "cpu_s": 0.05,
    "peak_rss_mb": 0.05,
    "ops_per_s": 0.05,
}
CAP = 0.25
SETS = 2
RUNS = 10


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    command = [
        sys.executable, str(HERE / "bench.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {record['failures']}")
    return record


def _cpu_model() -> str | None:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor() or None
    return next(
        (line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")),
        None,
    )


def spread(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "rel_iqr": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sets: list[dict[str, Any]] = []
    traced: dict[str, list[dict[str, float]]] = {w: [] for w in WORKLOADS}
    meta: dict[str, Any] = {}
    for k in range(SETS):
        seeds = [1000 * k + i + 1 for i in range(RUNS)]
        values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
        raw: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
        for seed in seeds:
            for workload in WORKLOADS:
                record = bench(workload, seed, seconds, 0)
                meta.update(
                    (key, value)
                    for key, value in record["meta"].items()
                    if value is not None
                )
                for name, metric in record["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
                for name, metric in record["raw_metrics"].items():
                    raw[workload].setdefault(name, []).append(metric["value"])
                print(f"set {k} seed {seed} {workload}: wall_s="
                      f"{record['metrics']['wall_s']['value']:.4f}", flush=True)
        for workload in WORKLOADS:
            record = bench(workload, seeds[0], seconds, 1)
            traced[workload].append(
                {"seed": seeds[0]}
                | {name: m["value"] for name, m in record["metrics"].items()}
            )
        sets.append(
            {
                "seeds": seeds,
                "workloads": {
                    workload: {name: spread(v) for name, v in metrics.items()}
                    for workload, metrics in values.items()
                },
                "unscaled": {
                    workload: {name: spread(v) for name, v in metrics.items()}
                    for workload, metrics in raw.items()
                },
            }
        )

    bounds: dict[str, Any] = {}
    for name in FLOOR:
        worst = max(
            s["workloads"][w][name]["rel_iqr"] for s in sets for w in WORKLOADS
        )
        bound = min(CAP, max(FLOOR[name], 3 * worst))
        first = sets[0]["workloads"]
        drift = max(
            (
                abs(s["workloads"][w][name]["median"] / first[w][name]["median"] - 1)
                for s in sets[1:]
                for w in WORKLOADS
            ),
            default=0.0,
        )
        bounds[name] = {
            "bound": round(bound, 3),
            "max_rel_iqr": worst,
            "max_median_drift": drift,
            "steady": 3 * worst <= CAP,
        }
        print(f"{name}: bound {bound:.3f}  max rel IQR {worst:.4f}  "
              f"max median drift {drift:.4f}")

    payload = {
        "rule": "bound = clamp(3 * max rel IQR, floor, cap)",
        "floor": FLOOR,
        "cap": CAP,
        "seconds": seconds,
        "machine": meta | {"platform": platform.platform(), "cpu": _cpu_model()},
        "sets": sets,
        "bounds": bounds,
        "traced": traced,
    }
    out = HERE / "calibration.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
