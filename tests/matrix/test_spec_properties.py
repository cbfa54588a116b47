"""Property-based guarantees for the spec model (satellite 1).

Two contracts, each over *generated* specs rather than hand-picked ones:

* **Round-trip** — any valid spec list serialises to TOML and parses
  back equal.  This is what makes spec files a safe interchange format:
  nothing a user can express is lost or mangled by the codec.
* **Expansion** — the cell count is exactly the product of the axis
  lengths (with the empty-``ks`` axis contributing one default-k cell)
  and no two cells are equal: expansion is a pure cross-product, no
  dedup, no drops.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix.spec import (
    ScenarioSpec,
    expand,
    parse_toml,
    specs_to_toml,
)

# Generation stays inside the *valid* spec space: the round-trip contract
# is about serialisation fidelity, not validation (validation has its own
# unit tests).  Tags are any printable ASCII, including quotes and
# backslashes (the TOML writer must escape them).
_PROTOCOLS = ("A", "A'", "AG85", "B", "C", "CR", "D", "E", "F", "FT",
              "G", "HS", "LMW86", "R")
_SCENARIOS = ("benign", "worst_case", "chain", "adversarial_ports",
              "congested", "frozen_middle", "lossy", "partitioned")

_tags = st.text(
    st.characters(codec="ascii", min_codepoint=0x20),
    min_size=1,
    max_size=16,
)


def _axis(values, max_size=4):
    return st.lists(
        st.sampled_from(values), min_size=1, max_size=max_size, unique=True
    ).map(tuple)


def _int_axis(lo, hi, min_size=1, max_size=3):
    return st.lists(
        st.integers(lo, hi), min_size=min_size, max_size=max_size,
        unique=True,
    ).map(tuple)


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    fuzz_schedules = draw(st.sampled_from([0, 8, 50]))
    exhaustive = draw(st.booleans())
    return ScenarioSpec(
        tag=draw(_tags),
        protocols=draw(_axis(_PROTOCOLS)),
        scenarios=draw(_axis(_SCENARIOS)),
        ns=draw(_int_axis(2, 128)),
        seeds=draw(_int_axis(0, 99)),
        ks=draw(_int_axis(1, 16, min_size=0, max_size=3)),
        verify_ns=draw(_int_axis(2, 6)) if exhaustive else (),
        fuzz_ns=draw(_int_axis(2, 16)) if fuzz_schedules else (),
        fuzz_schedules=fuzz_schedules,
        fault_budget=draw(st.integers(0, 4)) if fuzz_schedules else 0,
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(scenario_specs(), min_size=1, max_size=4))
def test_toml_round_trip(specs):
    assert parse_toml(specs_to_toml(specs)) == specs


@settings(max_examples=100, deadline=None)
@given(scenario_specs())
def test_expansion_yields_the_exact_cross_product_count(spec):
    cells = expand(spec)
    expected = (
        len(spec.protocols)
        * len(spec.scenarios)
        * len(spec.ns)
        * len(spec.seeds)
        * max(1, len(spec.ks))
    )
    assert len(cells) == expected


@settings(max_examples=100, deadline=None)
@given(scenario_specs())
def test_expansion_produces_no_duplicate_cells(spec):
    cells = expand(spec)
    assert len(set(cells)) == len(cells)
