"""Self-test of the benchmark at smoke scale.

Run from the repository root (outside the tier-1 ``testpaths``)::

    python -m pytest benchmarks/e2e -q

Smoke scale is N=512 elections, Protocol A at N=4, a 16-task sweep and
G(k=8) at N=128 under loss, one unit each; the whole module takes well
under 20 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import HERE, ROOT, WORKLOADS

SEED = 7


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "bench.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )


def _parse(completed: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """Per-workload records and the final result line of one invocation."""
    assert completed.returncode == 0, completed.stderr
    lines = [line for line in completed.stdout.splitlines() if line.startswith("{")]
    records = {}
    for line in lines[:-1]:
        record = json.loads(line)
        records[record["workload"]] = record
    return records, json.loads(lines[-1])


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced() -> list[tuple[dict, dict]]:
    """Two identical untraced invocations of every workload."""
    args = ("all", "--seed", str(SEED), "--scale", "smoke", "--seconds", "0")
    return [_parse(_bench(*args)) for _ in range(2)]


@pytest.fixture(scope="module")
def traced() -> tuple[dict, dict]:
    return _parse(
        _bench("all", "--seed", str(SEED), "--scale", "smoke", "--trace")
    )


def test_declaration_names_the_workloads(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["paths"] == ["benchmarks/e2e"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_end_to_end_metrics_emitted_with_units(untraced, declared):
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    records, final = untraced[0]
    assert sorted(records) == sorted(WORKLOADS)
    for record in records.values():
        emitted = {name: m["unit"] for name, m in record["metrics"].items()}
        assert emitted == units, record["workload"]
        assert all(m["value"] > 0 for m in record["metrics"].values())
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert len(final["metrics"]) == len(units) * len(WORKLOADS)


def test_layer_metrics_emitted_with_units(traced, declared):
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    records, _final = traced
    for record in records.values():
        emitted = {name: m["unit"] for name, m in record["metrics"].items()}
        assert emitted == units, record["workload"]


def test_no_failures(untraced, traced):
    for records, final in [*untraced, traced]:
        assert final["correct"] and final["failed"] == 0
        assert final["attempted"] >= len(WORKLOADS)
        for record in records.values():
            assert record["failed"] == 0, record["failures"]


def test_digests_repeat_and_sharded_matches_serial(untraced):
    (first, _), (second, _) = untraced
    for workload in WORKLOADS:
        assert first[workload]["digest"] == second[workload]["digest"], workload
    assert first["elect_sharded"]["digest"] == first["elect_serial"]["digest"]


def test_self_times_sum_to_traced_wall(traced):
    records, _final = traced
    for workload in WORKLOADS:
        path = ROOT / ".bench_out" / f"trace-{workload}-smoke-seed{SEED}.json"
        trace = json.loads(path.read_text())
        self_s = sum(layer["self_s"] for layer in trace["layers"].values())
        unattributed = records[workload]["metrics"]["trace.unattributed_s"]["value"]
        assert self_s + unattributed == pytest.approx(trace["traced_wall_s"])
        assert unattributed >= 0.0, workload


def test_fails_without_the_package(tmp_path):
    """A checkout holding only the benchmark exits non-zero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _bench(
        "--workload", "elect_serial", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
