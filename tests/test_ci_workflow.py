"""Syntax and contract validation for ``.github/workflows/ci.yml``.

``actionlint`` is not available in this container, so this is the
equivalent gate the acceptance criteria ask for: the workflow must parse,
every job must be well-formed (runner, steps, pinned actions), and the
commands CI runs must be the exact commands the repo documents — the
tier-1 invocation, the self-hosted linter, the smoke markers from
``pyproject.toml``, the curated matrix cross-check, the merge-base
BENCH trend gate and the end-to-end benchmark's self-test.  Skips cleanly when PyYAML is absent.
"""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"
NIGHTLY = Path(__file__).parent.parent / ".github" / "workflows" / "nightly.yml"


@pytest.fixture(scope="module")
def spec():
    return yaml.safe_load(WORKFLOW.read_text())


@pytest.fixture(scope="module")
def jobs(spec):
    return spec["jobs"]


@pytest.fixture(scope="module")
def nightly_spec():
    return yaml.safe_load(NIGHTLY.read_text())


@pytest.fixture(scope="module")
def nightly_jobs(nightly_spec):
    return nightly_spec["jobs"]


def _steps(job):
    for step in job["steps"]:
        assert "uses" in step or "run" in step, f"step does nothing: {step}"
        yield step


def _run_lines(job):
    for step in _steps(job):
        if "run" in step:
            assert isinstance(step["run"], str)
            yield from step["run"].splitlines()


class TestWorkflowShape:
    def test_parses_and_names_the_pipeline(self, spec):
        assert spec["name"] == "CI"

    def test_triggers_on_push_and_pull_request(self, spec):
        # YAML 1.1 reads an unquoted ``on:`` key as boolean True.
        triggers = spec.get("on", spec.get(True))
        assert "pull_request" in triggers
        assert triggers["push"]["branches"] == ["main"]

    def test_expected_jobs_exist(self, jobs):
        assert set(jobs) == {
            "tests", "lint", "smoke", "matrix", "bench-trends",
            "bench-smoke",
        }

    def test_every_job_has_a_runner_and_steps(self, jobs):
        for name, job in jobs.items():
            assert job["runs-on"] == "ubuntu-latest", name
            assert list(_steps(job)), name

    def test_every_action_is_version_pinned(self, jobs):
        for job in jobs.values():
            for step in _steps(job):
                if "uses" in step:
                    action, _, version = step["uses"].partition("@")
                    assert action and version.startswith("v"), step["uses"]

    def test_checkout_precedes_python_setup_everywhere(self, jobs):
        for name, job in jobs.items():
            uses = [s["uses"].split("@")[0] for s in _steps(job) if "uses" in s]
            assert uses.index("actions/checkout") < uses.index(
                "actions/setup-python"
            ), name

    def test_pip_caching_is_enabled_everywhere(self, jobs):
        for name, job in jobs.items():
            caches = [
                s["with"].get("cache")
                for s in _steps(job)
                if s.get("uses", "").startswith("actions/setup-python@")
            ]
            assert caches and all(c == "pip" for c in caches), name


class TestCommands:
    def test_tier1_matrix_covers_supported_pythons(self, jobs):
        matrix = jobs["tests"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.11", "3.12", "3.13"]

    def test_tier1_runs_the_documented_command(self, jobs):
        steps = [s for s in _steps(jobs["tests"]) if "run" in s]
        tier1 = [s for s in steps if "python -m pytest -x -q" in s["run"]]
        assert len(tier1) == 1
        assert tier1[0]["env"]["PYTHONPATH"] == "src"

    def test_shard_smoke_leg_exercises_the_sharded_cli(self, jobs):
        # The sharded CLI's output must equal the serial CLI's, byte for
        # byte, on forked workers, with the worker count left to the auto
        # choice (the benchmark's path), and on one in-process shard
        # (every send on the local lane), with cyclic and with table
        # wiring, and for Protocol G's multi-phase run, also over 4
        # shards, where each shard routes remote payloads to three peers:
        # an exit status alone would pass a sharded run that printed the
        # wrong leader.
        sharded = [
            s for s in _steps(jobs["smoke"])
            if "run" in s and "--shards" in s["run"]
        ]
        assert len(sharded) == 1
        assert sharded[0]["if"] == "matrix.marker == 'shard_smoke'"
        lines = [line.strip() for line in sharded[0]["run"].splitlines()]
        assert lines == [
            "python -m repro run --protocol C --n 256 > serial_c.txt",
            "python -m repro run --protocol C --n 256 --shards 2 "
            "--shard-workers 2 > sharded_c.txt",
            "diff serial_c.txt sharded_c.txt",
            # No --shard-workers: the auto-worker path the benchmark takes.
            "python -m repro run --protocol C --n 256 --shards 2 "
            "> sharded_c_auto.txt",
            "diff serial_c.txt sharded_c_auto.txt",
            "python -m repro run --protocol E --n 64 --no-sense --seed 3 "
            "> serial_e.txt",
            "python -m repro run --protocol E --n 64 --no-sense --seed 3 "
            "--shards 3 --shard-workers 3 > sharded_e.txt",
            "diff serial_e.txt sharded_e.txt",
            "python -m repro run --protocol C --n 256 --shards 1 "
            "--shard-workers 0 > sharded_c1.txt",
            "diff serial_c.txt sharded_c1.txt",
            "python -m repro run --protocol E --n 64 --no-sense --seed 3 "
            "--shards 1 --shard-workers 0 > sharded_e1.txt",
            "diff serial_e.txt sharded_e1.txt",
            "python -m repro run --protocol G --n 96 --no-sense --seed 5 "
            "> serial_g.txt",
            "python -m repro run --protocol G --n 96 --no-sense --seed 5 "
            "--shards 2 --shard-workers 2 > sharded_g.txt",
            "diff serial_g.txt sharded_g.txt",
            "python -m repro run --protocol G --n 96 --no-sense --seed 5 "
            "--shards 1 --shard-workers 0 > sharded_g1.txt",
            "diff serial_g.txt sharded_g1.txt",
            "python -m repro run --protocol G --n 96 --no-sense --seed 5 "
            "--shards 4 --shard-workers 4 > sharded_g4.txt",
            "diff serial_g.txt sharded_g4.txt",
        ]

    def test_perf_smoke_leg_reruns_the_lossy_scenario(self, jobs):
        # The compiled faulty send must print the same lossy election in
        # two processes with different hash seeds, and G's election and
        # FT's, whose links read past a first batch of fault draws, their
        # pinned lines.
        lossy = [
            s for s in _steps(jobs["smoke"])
            if "run" in s and "--name lossy" in s["run"]
        ]
        assert len(lossy) == 1
        assert lossy[0]["if"] == "matrix.marker == 'perf_smoke'"
        assert lossy[0]["env"]["PYTHONPATH"] == "src"
        lines = [line.strip() for line in lossy[0]["run"].splitlines()]
        run = "python -m repro scenario --protocol {} --name lossy --n 128 --seed 3"
        g, ft = run.format("G"), run.format("FT")
        assert lines == [
            f"PYTHONHASHSEED=1 {g} > lossy_a.txt",
            f"PYTHONHASHSEED=2 {g} > lossy_b.txt",
            "diff lossy_a.txt lossy_b.txt",
            "grep -qxF 'REL[G(k=logN)]: N=128 leader=32 msgs=6241 "
            "time=45.65 depth=12' lossy_a.txt",
            f"PYTHONHASHSEED=1 {ft} > lossy_ft_a.txt",
            f"PYTHONHASHSEED=2 {ft} > lossy_ft_b.txt",
            "diff lossy_ft_a.txt lossy_ft_b.txt",
            "grep -qxF 'REL[FT(f=0)]: N=128 leader=109 msgs=10291 "
            "time=73.98 depth=5' lossy_ft_a.txt",
        ]

    def test_perf_smoke_leg_reruns_the_constant_latency_scenarios(self, jobs):
        # Unit-delay sends take the event queue's in-order lane: two
        # elections must print the same line in two processes with
        # different hash seeds, and the line each printed before the lane.
        unit = [
            s for s in _steps(jobs["smoke"])
            if "run" in s and "--name worst_case" in s["run"]
        ]
        assert len(unit) == 1
        assert unit[0]["if"] == "matrix.marker == 'perf_smoke'"
        assert unit[0]["env"]["PYTHONPATH"] == "src"
        lines = [line.strip() for line in unit[0]["run"].splitlines()]
        run = "python -m repro scenario --protocol {} --name worst_case --n {} --seed 3"
        d, c = run.format("D", 128), run.format("C", 256)
        assert lines == [
            f"PYTHONHASHSEED=1 {d} > unit_d_a.txt",
            f"PYTHONHASHSEED=2 {d} > unit_d_b.txt",
            "diff unit_d_a.txt unit_d_b.txt",
            "grep -qxF 'D: N=128 leader=127 msgs=32512 time=2.00 depth=2' "
            "unit_d_a.txt",
            f"PYTHONHASHSEED=1 {c} > unit_c_a.txt",
            f"PYTHONHASHSEED=2 {c} > unit_c_b.txt",
            "diff unit_c_a.txt unit_c_b.txt",
            "grep -qxF 'C: N=256 leader=255 msgs=1922 time=36.00 depth=36' "
            "unit_c_a.txt",
        ]

    def test_verify_smoke_leg_diffs_hash_seeds_and_workers(self, jobs):
        # The exhaustive checker must report the same A@5 graph under two
        # hash seeds and when stratified across two workers, the same A@3
        # stratified report on every run however the pool schedules its
        # strata, and the same G@3 (no sense of direction) graph serially
        # and stratified; the A@5 and G@3 reports must be their pinned
        # lines.
        verify = [
            s for s in _steps(jobs["smoke"])
            if "run" in s and "repro verify --protocol A" in s["run"]
        ]
        assert len(verify) == 1
        assert verify[0]["if"] == "matrix.marker == 'verify_smoke'"
        assert verify[0]["env"]["PYTHONPATH"] == "src"
        lines = [line.strip() for line in verify[0]["run"].splitlines()]
        run = "python -m repro verify --protocol A --n 5"
        assert lines == [
            f"PYTHONHASHSEED=1 {run} > verify_a.txt",
            f"PYTHONHASHSEED=2 {run} > verify_b.txt",
            f"{run} --workers 2 > verify_w.txt",
            "diff verify_a.txt verify_b.txt",
            "diff verify_a.txt verify_w.txt",
            "grep -qxF '10248 states, 16995 transitions, 56 terminal, "
            "leaders [0, 1, 2, 3, 4] (complete, POR)' verify_a.txt",
            "python -m repro verify --protocol A --n 3 --workers 2 "
            "> verify_w3a.txt",
            "python -m repro verify --protocol A --n 3 --workers 2 "
            "> verify_w3b.txt",
            "diff verify_w3a.txt verify_w3b.txt",
            "python -m repro verify --protocol G --n 3 --no-sense "
            "> verify_g.txt",
            "python -m repro verify --protocol G --n 3 --no-sense --workers 2 "
            "> verify_gw.txt",
            "diff verify_g.txt verify_gw.txt",
            "grep -qxF '1866 states, 2680 transitions, 44 terminal, "
            "leaders [0, 1, 2] (complete, POR)' verify_g.txt",
        ]

    def test_lint_job_runs_the_self_hosted_linter(self, jobs):
        lines = list(_run_lines(jobs["lint"]))
        assert any(line.strip() == "python -m repro lint" for line in lines)

    def test_lint_job_runs_the_flow_pass_and_analyze(self, jobs):
        lines = [line.strip() for line in _run_lines(jobs["lint"])]
        assert "python -m repro lint --flow" in lines
        assert "python -m repro analyze" in lines

    def test_lint_job_uploads_sarif_to_code_scanning(self, jobs):
        job = jobs["lint"]
        assert job["permissions"]["security-events"] == "write"
        uploads = [
            s for s in _steps(job)
            if s.get("uses", "").startswith("github/codeql-action/upload-sarif@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "always()"
        assert uploads[0]["with"]["sarif_file"] == "lint_report.sarif"
        renders = [
            s for s in _steps(job)
            if "run" in s and "--format sarif" in s["run"]
        ]
        assert len(renders) == 1
        assert "lint_report.sarif" in renders[0]["run"]

    def test_ruff_and_mypy_are_availability_gated_and_advisory(self, jobs):
        gated = [
            s for s in _steps(jobs["lint"])
            if "run" in s and "command -v ruff" in s["run"]
        ]
        assert len(gated) == 1
        assert gated[0]["continue-on-error"] is True
        assert "command -v mypy" in gated[0]["run"]

    def test_lint_failure_uploads_the_golden_report(self, jobs):
        uploads = [
            s for s in _steps(jobs["lint"])
            if s.get("uses", "").startswith("actions/upload-artifact@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "failure()"
        assert "tests/fixtures/lint/golden_report.json" in uploads[0]["with"]["path"]

    def test_smoke_matrix_matches_the_registered_markers(self, jobs):
        import tomllib

        pyproject = tomllib.loads(
            (Path(__file__).parent.parent / "pyproject.toml").read_text()
        )
        registered = {
            m.split(":")[0] for m in pyproject["tool"]["pytest"]["ini_options"]["markers"]
        }
        matrix = set(jobs["smoke"]["strategy"]["matrix"]["marker"])
        assert matrix == registered
        lines = list(_run_lines(jobs["smoke"]))
        assert any("-m ${{ matrix.marker }}" in line for line in lines)

    def test_stat_smoke_leg_diffs_deterministic_reruns(self, jobs):
        """The stat_smoke leg's reproducibility contract: the reduced
        Monte-Carlo campaign runs twice with the same deterministic
        trial seeds and the two reports must be byte-identical."""
        stat = [
            s for s in _steps(jobs["smoke"])
            if "run" in s and "verify --stat" in s["run"]
        ]
        assert len(stat) == 1
        assert stat[0]["if"] == "matrix.marker == 'stat_smoke'"
        lines = [line.strip() for line in stat[0]["run"].splitlines()]
        reruns = [line for line in lines if "verify --stat" in line]
        assert len(reruns) == 2
        # Same flags both times — fixed trial seeds, so identical input.
        assert reruns[0].split("|")[0].strip() == reruns[1].split(">")[0].strip()
        assert any(line.startswith("diff ") for line in lines)

    def test_stat_smoke_failure_uploads_the_aggregate_report(self, jobs):
        uploads = [
            s for s in _steps(jobs["smoke"])
            if s.get("uses", "").startswith("actions/upload-artifact@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "failure() && matrix.marker == 'stat_smoke'"
        assert "stat_report.md" in uploads[0]["with"]["path"]

    def test_shard_smoke_leg_is_pinned_in_the_smoke_matrix(self, jobs):
        """The sharded-kernel digest check must stay a named CI leg.

        The marker-equality test above would also catch its removal, but
        only indirectly (by failing on pyproject).  This pin makes the
        intent explicit: dropping ``shard_smoke`` from the smoke matrix
        is dropping the serial-equivalence gate, not a cleanup.
        """
        assert "shard_smoke" in jobs["smoke"]["strategy"]["matrix"]["marker"]

    def test_matrix_job_runs_the_quick_curated_cross_check(self, jobs):
        lines = [line.strip() for line in _run_lines(jobs["matrix"])]
        assert (
            "python -m repro check --all --quick --outdir matrix_out"
            in lines
        )

    def test_matrix_failure_uploads_the_aggregate_report(self, jobs):
        uploads = [
            s for s in _steps(jobs["matrix"])
            if s.get("uses", "").startswith("actions/upload-artifact@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "failure()"
        assert uploads[0]["with"]["path"] == "matrix_out"

    def test_bench_gate_compares_merge_base_snapshots(self, jobs):
        job = jobs["bench-trends"]
        checkouts = [
            s for s in _steps(job)
            if s.get("uses", "").startswith("actions/checkout@")
        ]
        # The merge-base extraction needs history, not a shallow clone.
        assert checkouts[0]["with"]["fetch-depth"] == 0
        lines = [line.strip() for line in _run_lines(job)]
        assert any("git merge-base" in line for line in lines)
        for name in (
            "BENCH_kernel.json", "BENCH_verify.json", "BENCH_faults.json",
            "BENCH_random.json",
        ):
            assert any(name in line for line in lines), name
        assert (
            "python -m repro trends --baseline ci_baseline --current ."
            in lines
        )

    def test_bench_smoke_runs_the_benchmark_self_test(self, jobs):
        """The benchmark's spans wrap checker and simulator methods by
        name; its self-test is the gate that notices a rename."""
        lines = [line.strip() for line in _run_lines(jobs["bench-smoke"])]
        assert "python -m pytest benchmarks/e2e -q" in lines


class TestNightly:
    """The scheduled deep-verification workflow (nightly.yml)."""

    def test_runs_on_a_schedule_and_by_hand(self, nightly_spec):
        triggers = nightly_spec.get("on", nightly_spec.get(True))
        assert "workflow_dispatch" in triggers
        crons = [entry["cron"] for entry in triggers["schedule"]]
        assert len(crons) == 1
        # Five-field cron, nightly cadence (every day-of-month/month/week).
        minute, hour, dom, month, dow = crons[0].split()
        assert (dom, month, dow) == ("*", "*", "*")
        assert minute.isdigit() and hour.isdigit()

    def test_expected_jobs_exist(self, nightly_jobs):
        assert set(nightly_jobs) == {"stat-deep", "check-deep"}

    def test_every_nightly_action_is_version_pinned(self, nightly_jobs):
        for job in nightly_jobs.values():
            for step in _steps(job):
                if "uses" in step:
                    action, _, version = step["uses"].partition("@")
                    assert action and version.startswith("v"), step["uses"]

    def test_stat_deep_runs_the_acceptance_scale_campaign(self, nightly_jobs):
        # 600 trials certify the 0.99/0.99 pair (zero failures needed
        # from 459 up); the default strata are N in {64, 256}.
        lines = [line.strip() for line in _run_lines(nightly_jobs["stat-deep"])]
        deep = [line for line in lines if "verify --stat" in line]
        assert len(deep) == 2, "the campaign must run twice and be diffed"
        for line in deep:
            assert "--confidence 0.99" in line
            assert "--trials 600" in line
        assert any(line.startswith("diff ") for line in lines)

    def test_stat_deep_always_uploads_the_report(self, nightly_jobs):
        uploads = [
            s for s in _steps(nightly_jobs["stat-deep"])
            if s.get("uses", "").startswith("actions/upload-artifact@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "always()"
        assert "stat_deep.md" in uploads[0]["with"]["path"]

    def test_check_deep_runs_the_full_nonquick_campaign(self, nightly_jobs):
        lines = [line.strip() for line in _run_lines(nightly_jobs["check-deep"])]
        full = [line for line in lines if "repro check --all" in line]
        assert len(full) == 1
        assert "--quick" not in full[0]
        uploads = [
            s for s in _steps(nightly_jobs["check-deep"])
            if s.get("uses", "").startswith("actions/upload-artifact@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "always()"
