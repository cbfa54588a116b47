"""End-to-end tests for ``python -m repro check --all`` (marked
``matrix_smoke`` where they run the full quick campaign)."""

from __future__ import annotations

import json

import pytest

from repro.matrix import check_all, parse_toml
from tests.sim.determinism_cases import assert_digest_stable

SMALL = """
[[spec]]
tag = "mini"
protocols = ["E", "C"]
scenarios = ["worst_case", "lossy"]
ns = [8]
verify_ns = [4]
fuzz_ns = [8]
fuzz_schedules = 12
fault_budget = 1
"""


@pytest.fixture(scope="module")
def mini_report():
    return check_all(parse_toml(SMALL), parallel=False)


class TestPhases:
    def test_all_seven_phases_ran(self, mini_report):
        assert mini_report.matrix.cells
        assert set(mini_report.verify) == {"E@4", "C@4"}
        assert set(mini_report.fuzz) == {
            "E@8x12+faults1", "C@8x12+faults1"
        }
        assert len(mini_report.contract) == 16
        assert mini_report.shard
        assert len(mini_report.conformance) == 16
        assert set(mini_report.stat) == {"RS/benign@64", "RT/benign@64"}

    def test_stat_phase_certifies_the_acceptance_pair(self, mini_report):
        # Full (non-quick) mode must certify LCB >= 0.99 at 0.99
        # confidence for every randomized stratum — the ISSUE's
        # acceptance criterion, enforced on every check --all.
        for key, stratum in mini_report.stat.items():
            assert stratum["trials"] == 600, key
            assert stratum["lcb_safety"] >= 0.99, (key, stratum)
            assert stratum["lcb_bound"] >= 0.99, (key, stratum)

    def test_conformance_phase_respects_every_static_bound(
        self, mini_report
    ):
        for name, outcome in mini_report.conformance.items():
            assert outcome["ok"], (name, outcome["violations"])
            assert outcome["measured_max"] <= outcome["static_bound"], name
            assert outcome["leader_id"] is not None, name

    def test_sharded_digest_phase_matches_serial_on_every_cell(
        self, mini_report
    ):
        assert "C@64/shards2" in mini_report.shard
        assert any("+lossy" in label for label in mini_report.shard)
        for label, outcome in mini_report.shard.items():
            assert outcome["equal"], label
            assert outcome["leader_id"] is not None, label

    def test_the_campaign_passes(self, mini_report):
        assert mini_report.passed
        mini_report.raise_if_failed()

    def test_exploration_results_carry_no_worker_counts(self, mini_report):
        # The digest-determinism contract: nothing machine- or
        # schedule-dependent may reach the payload.
        text = json.dumps(mini_report.payload())
        assert "workers" not in text
        assert "seconds" not in text

    def test_contract_phase_masks_all_loss(self, mini_report):
        for name, outcome in mini_report.contract.items():
            assert outcome["packets_abandoned"] == 0, name
            assert outcome["leader_id"] is not None, name

    def test_report_files_are_written(self, tmp_path):
        report = check_all(
            parse_toml(SMALL), parallel=False, outdir=tmp_path
        )
        payload = json.loads((tmp_path / "check_report.json").read_text())
        assert payload == report.payload()
        assert (tmp_path / "check_report.md").exists()
        assert (tmp_path / "matrix" / "matrix_report.json").exists()


class TestDigestDeterminism:
    def test_serial_and_parallel_digests_are_byte_identical(self):
        assert_digest_stable(
            lambda parallel: check_all(
                parse_toml(SMALL), parallel=parallel
            ).digest(),
            label="check --all digest",
        )


@pytest.mark.matrix_smoke
class TestQuickCampaign:
    """The CI `matrix_smoke` slice: the real curated quick campaign."""

    def test_curated_quick_campaign_passes_end_to_end(self, tmp_path):
        report = check_all(quick=True, outdir=tmp_path)
        assert report.passed, report.render()
        # Expansion → filtering → sweep → cross-checks all happened.
        assert len(report.matrix.cells) > 100
        assert report.matrix.rejected
        assert report.verify
        assert report.fuzz
        assert len(report.contract) == 16
        assert len(report.conformance) == 16
        assert (tmp_path / "check_report.json").exists()


class TestCLI:
    def test_check_requires_dash_dash_all(self, capsys):
        from repro.__main__ import main

        assert main(["check"]) == 2

    def test_check_all_runs_a_spec_file(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_file = tmp_path / "mini.toml"
        spec_file.write_text(SMALL)
        code = main(
            ["check", "--all", "--spec", str(spec_file), "--quick"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "check --all report" in out
        assert "digest" in out

    def test_matrix_subcommand_sweeps_a_spec_file(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_file = tmp_path / "mini.toml"
        spec_file.write_text(
            '[[spec]]\ntag = "cli"\nprotocols = ["E"]\n'
            'scenarios = ["benign"]\nns = [8]\n'
        )
        code = main(
            ["matrix", "--spec", str(spec_file), "--outdir",
             str(tmp_path / "out")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Matrix sweep report" in out
        assert (tmp_path / "out" / "matrix_report.json").exists()

    def test_matrix_strict_mode_refuses_illegal_cells(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_file = tmp_path / "bad.toml"
        spec_file.write_text(
            '[[spec]]\ntag = "cli"\nprotocols = ["C"]\n'
            'scenarios = ["adversarial_ports"]\nns = [16]\n'
        )
        code = main(["matrix", "--spec", str(spec_file), "--strict"])
        assert code == 2
        assert "refused" in capsys.readouterr().err
