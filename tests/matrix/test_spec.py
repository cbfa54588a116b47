"""Unit tests for the declarative scenario-spec model."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.matrix.spec import (
    MatrixCell,
    ScenarioSpec,
    build_protocol,
    cell_rejection,
    curated_specs,
    expand,
    expand_specs,
    family_seed,
    load_specs,
    parse_toml,
    protocol_takes_k,
    restrict_for_quick,
    specs_to_toml,
    validate_spec,
)


def spec(**overrides) -> ScenarioSpec:
    base = dict(
        tag="t", protocols=("E",), scenarios=("benign",), ns=(8,),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestValidation:
    def test_a_minimal_row_validates(self):
        validate_spec(spec())

    def test_unknown_protocol_is_rejected_at_load(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            validate_spec(spec(protocols=("E", "Z")))

    def test_unknown_scenario_is_rejected_at_load(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            validate_spec(spec(scenarios=("nope",)))

    @pytest.mark.parametrize("axis", ["protocols", "scenarios", "ns"])
    def test_empty_axes_are_rejected(self, axis):
        with pytest.raises(ConfigurationError, match="non-empty"):
            validate_spec(spec(**{axis: ()}))

    def test_duplicate_axis_values_are_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            validate_spec(spec(ns=(8, 8)))

    def test_symmetry_requires_verify_ns(self):
        with pytest.raises(ConfigurationError, match="verify_ns"):
            validate_spec(spec(symmetry="census"))

    def test_fuzz_schedules_requires_fuzz_ns(self):
        with pytest.raises(ConfigurationError, match="fuzz_ns"):
            validate_spec(spec(fuzz_schedules=10))

    def test_fuzz_ns_requires_fuzz_schedules(self):
        with pytest.raises(ConfigurationError, match="fuzz_schedules"):
            validate_spec(spec(fuzz_ns=(4,)))

    def test_tiny_network_sizes_are_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 2"):
            validate_spec(spec(ns=(1,)))


class TestCapabilityGate:
    """`symmetry = "prune"` is refused at spec load for every protocol the
    linter-derived capability table cannot prove equivariant — all
    fourteen paper protocols compare identities, so prune is a spec bug
    here, caught before a single cell runs."""

    @pytest.mark.parametrize("protocol", ["A", "C", "E", "G", "FT"])
    def test_prune_is_rejected_for_id_comparing_protocols(self, protocol):
        with pytest.raises(ConfigurationError, match="not\\s+outcome-sound"):
            validate_spec(
                spec(
                    protocols=(protocol,), symmetry="prune", verify_ns=(3,)
                )
            )

    def test_census_is_always_allowed(self):
        validate_spec(spec(symmetry="census", verify_ns=(3,)))

    def test_unknown_symmetry_mode_is_rejected(self):
        with pytest.raises(ConfigurationError, match="symmetry must be"):
            validate_spec(spec(symmetry="orbit", verify_ns=(3,)))


class TestExpansion:
    def test_expansion_is_the_exact_cross_product(self):
        row = spec(
            protocols=("E", "D"), scenarios=("benign", "lossy"),
            ns=(4, 8), seeds=(0, 1, 2),
        )
        cells = expand(row)
        assert len(cells) == 2 * 2 * 2 * 3
        assert len(set(cells)) == len(cells)

    def test_empty_k_axis_means_one_default_k_cell(self):
        assert all(cell.k is None for cell in expand(spec()))

    def test_k_axis_multiplies_cells(self):
        row = spec(protocols=("G",), ns=(16,), ks=(2, 4))
        assert [cell.k for cell in expand(row)] == [2, 4]

    def test_cell_ids_are_unique_within_a_row(self):
        row = spec(
            protocols=("F", "G"), scenarios=("benign", "chain"),
            ns=(8, 16), seeds=(0, 1), ks=(2, 4),
        )
        ids = [cell.cell_id for cell in expand(row)]
        assert len(set(ids)) == len(ids)


class TestFiltering:
    def test_sense_protocol_under_port_adversary_is_filtered(self):
        cell = MatrixCell("t", "C", "adversarial_ports", 16, 0)
        assert "unlabeled" in cell_rejection(cell)

    def test_small_n_under_port_adversary_is_filtered(self):
        cell = MatrixCell("t", "E", "adversarial_ports", 6, 0)
        assert "too small" in cell_rejection(cell)

    def test_k_on_a_protocol_without_k_is_filtered(self):
        cell = MatrixCell("t", "E", "benign", 8, 0, k=2)
        assert "no k parameter" in cell_rejection(cell)

    def test_k_exceeding_n_minus_one_is_filtered(self):
        cell = MatrixCell("t", "G", "benign", 4, 0, k=5)
        assert "exceeds" in cell_rejection(cell)

    def test_protocol_validate_constraints_are_filtered(self):
        # B requires a power-of-two N; the filter probes validate().
        cell = MatrixCell("t", "B", "benign", 6, 0)
        assert "power of two" in cell_rejection(cell)

    def test_legal_cells_pass(self):
        assert cell_rejection(MatrixCell("t", "E", "lossy", 8, 0)) is None

    def test_expand_specs_splits_legal_from_rejected(self):
        rows = [
            spec(protocols=("C", "E"), scenarios=("adversarial_ports",),
                 ns=(16,))
        ]
        legal, rejected = expand_specs(rows)
        assert [c.protocol for c in legal] == ["E"]
        assert [c.protocol for c, _ in rejected] == ["C"]

    def test_strict_mode_raises_instead_of_filtering(self):
        rows = [spec(protocols=("C",), scenarios=("adversarial_ports",),
                     ns=(16,))]
        with pytest.raises(ConfigurationError, match="illegal cell"):
            expand_specs(rows, filter=False)


class TestSeedFamily:
    """The `seed_family` axis: randomized (`uses_ctx_rng`) protocols must
    name the coin universe their cells sample, and the seeds axis then
    holds family *indices* whose run seeds are derived, not raw."""

    def test_randomized_cell_without_a_family_is_filtered(self):
        reason = cell_rejection(MatrixCell("t", "RS", "benign", 16, 0))
        assert "seed_family" in reason
        assert "uses_ctx_rng" in reason

    def test_randomized_cell_with_a_family_passes(self):
        cell = MatrixCell("t", "RT", "benign", 16, 0, seed_family="fam")
        assert cell_rejection(cell) is None

    def test_deterministic_cells_ignore_the_axis(self):
        assert cell_rejection(MatrixCell("t", "E", "benign", 8, 0)) is None
        labelled = MatrixCell("t", "E", "benign", 8, 0, seed_family="fam")
        assert cell_rejection(labelled) is None

    def test_expansion_derives_seeds_from_the_family(self):
        row = spec(protocols=("RS",), ns=(16,), seeds=(0, 1, 2),
                   seed_family="fam")
        cells = expand(row)
        assert [c.seed for c in cells] == [
            family_seed("fam", i) for i in (0, 1, 2)
        ]
        assert all(c.seed_family == "fam" for c in cells)
        # Derived seeds are scrambled, not the raw indices.
        assert set(c.seed for c in cells) != {0, 1, 2}

    def test_family_seeds_are_stable_and_collision_free(self):
        assert family_seed("fam", 7) == family_seed("fam", 7)
        drawn = {family_seed("fam", i) for i in range(50)}
        drawn |= {family_seed("other", i) for i in range(50)}
        assert len(drawn) == 100

    def test_distinct_families_give_distinct_cell_ids(self):
        a = expand(spec(protocols=("RS",), ns=(16,), seed_family="a"))
        b = expand(spec(protocols=("RS",), ns=(16,), seed_family="b"))
        assert a[0].seed != b[0].seed

    def test_empty_family_name_is_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            validate_spec(spec(seed_family=""))

    def test_verify_ns_is_refused_for_ctx_rng_protocols(self):
        with pytest.raises(ConfigurationError, match="verify --stat"):
            validate_spec(
                spec(protocols=("RS",), ns=(16,), seed_family="fam",
                     symmetry="census", verify_ns=(3,))
            )

    def test_fuzz_ns_is_refused_for_ctx_rng_protocols(self):
        with pytest.raises(ConfigurationError, match="uses_ctx_rng"):
            validate_spec(
                spec(protocols=("RT",), ns=(16,), seed_family="fam",
                     fuzz_ns=(4,), fuzz_schedules=8)
            )

    def test_prune_is_refused_for_ctx_rng_protocols(self):
        # Per-node streams are seeded by identity, so relabelling
        # changes future coin flips — prune cannot be outcome-sound.
        with pytest.raises(ConfigurationError, match="not sound"):
            validate_spec(
                spec(protocols=("RS",), ns=(16,), seed_family="fam",
                     symmetry="prune", verify_ns=(3,))
            )

    def test_round_trips_preserve_the_family(self):
        row = spec(protocols=("RS", "RT"), ns=(16, 32), seeds=(0, 1),
                   seed_family="curated-rand")
        assert parse_toml(specs_to_toml([row])) == [row]

    def test_quick_restriction_preserves_the_family(self):
        row = spec(protocols=("RS",), ns=(16, 64), seed_family="fam")
        (quick,) = restrict_for_quick([row])
        assert quick.seed_family == "fam"
        assert max(quick.ns) <= 32

    def test_curated_randomized_rows_carry_families(self):
        rand_rows = [
            s for s in curated_specs()
            if any(p in ("RS", "RT") for p in s.protocols)
        ]
        assert rand_rows
        seeded = [s for s in rand_rows if s.seed_family is not None]
        assert seeded, "curated slice should exercise the seed_family axis"
        unseeded = [s for s in rand_rows if s.seed_family is None]
        assert unseeded, "curated slice should demonstrate the rejection"
        _, rejected = expand_specs(unseeded)
        assert all("seed_family" in reason for _, reason in rejected)


class TestSerialisation:
    def test_toml_parse_error_names_the_source(self):
        with pytest.raises(ConfigurationError, match="invalid TOML"):
            parse_toml("not [ toml", source="bad.toml")

    def test_toml_without_spec_tables_is_rejected(self):
        with pytest.raises(ConfigurationError, match="spec"):
            parse_toml("x = 1")

    def test_unknown_toml_field_is_rejected(self):
        text = '[[spec]]\ntag = "t"\nprotocols = ["E"]\n' \
               'scenarios = ["benign"]\nns = [8]\nbogus = 1\n'
        with pytest.raises(ConfigurationError, match="bogus"):
            parse_toml(text)

    def test_load_specs_reads_a_toml_file(self, tmp_path):
        row = spec(protocols=("E", "D"), seeds=(0, 3))
        toml_file = tmp_path / "s.toml"
        toml_file.write_text(specs_to_toml([row]))
        assert load_specs(toml_file) == [row]


class TestCurated:
    def test_curated_slice_loads_and_validates(self):
        specs = curated_specs()
        assert len(specs) >= 4
        tags = [s.tag for s in specs]
        assert len(set(tags)) == len(tags)

    def test_curated_slice_covers_every_protocol(self):
        from repro.core.protocol import registered_protocols

        covered = {p for s in curated_specs() for p in s.protocols}
        assert covered == set(registered_protocols())

    def test_curated_slice_covers_every_scenario(self):
        from repro.harness.scenarios import SCENARIOS

        covered = {sc for s in curated_specs() for sc in s.scenarios}
        assert covered == set(SCENARIOS)

    def test_curated_slice_exercises_the_filter(self):
        _, rejected = expand_specs(curated_specs())
        assert rejected, "curated slice should demonstrate cell filtering"

    def test_quick_restriction_keeps_every_row(self):
        specs = curated_specs()
        quick = restrict_for_quick(specs)
        assert len(quick) == len(specs)
        assert all(max(s.ns) <= 32 for s in quick)
        assert all(s.fuzz_schedules <= 16 for s in quick)
        for row in quick:
            validate_spec(row)


class TestProtocolHelpers:
    def test_protocol_takes_k_matches_the_registry(self):
        assert protocol_takes_k("G")
        assert protocol_takes_k("A")
        assert not protocol_takes_k("E")
        assert not protocol_takes_k("FT")

    def test_build_protocol_passes_k_through(self):
        cell = MatrixCell("t", "G", "benign", 16, 0, k=4)
        assert build_protocol(cell).k == 4

    def test_build_protocol_defaults_without_k(self):
        cell = MatrixCell("t", "E", "benign", 16, 0)
        assert type(build_protocol(cell)).name == "E"
