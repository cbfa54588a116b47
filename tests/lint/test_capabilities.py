"""The linter-derived capability table.

Pins two things: (1) the live derivation for every registered protocol
equals the literal per-protocol pin below, the only golden copy of these
facts; (2) all of the paper's deterministic protocols compare
identities, and the derivation actually reads the code: an id-oblivious
fixture protocol derives as equivariant.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import repro  # noqa: F401  (imports register every protocol)
from repro.core.protocol import registered_protocols
from repro.lint.capabilities import capability_for

#: The literal per-protocol pin: the derived capability fields the
#: sharded kernel, the matrix loader, ``verify --stat`` and the
#: conformance probe read.  Every deterministic protocol resolves
#: contests by identifier order, so neither equivariance holds for any
#: of them.  Kept literal so a new protocol (or a refactor that drops an
#: id comparison, arms a timer or changes a fan-out bound) must
#: consciously update this dict.
#:
#: The randomized family breaks symmetry by coin flips, not id order:
#: syntactically equivariant (ranks are compared as opaque tuples), but
#: its per-node coin streams are seeded by node identity (uses_ctx_rng).
_ID_ORDERED = {
    "uses_timers": False,
    "uses_rng": False,
    "uses_ctx_rng": False,
    "rotation_equivariant": False,
    "relabelling_equivariant": False,
}
_COIN_FLIPPING = {
    "uses_timers": False,
    "uses_rng": False,
    "uses_ctx_rng": True,
    "rotation_equivariant": True,
    "relabelling_equivariant": True,
}
HAND_CLASSIFICATION = {
    "A": {**_ID_ORDERED, "max_fanout": "O(num_ports)+3"},
    "A'": {**_ID_ORDERED, "max_fanout": "O(num_ports)+3"},
    "AG85": {**_ID_ORDERED, "max_fanout": "2"},
    "B": {**_ID_ORDERED, "max_fanout": "O(num_ports)+1"},
    "C": {**_ID_ORDERED, "max_fanout": "O(num_ports)+1"},
    "CR": {**_ID_ORDERED, "max_fanout": "1"},
    "D": {**_ID_ORDERED, "max_fanout": "O(num_ports)+1"},
    "E": {**_ID_ORDERED, "max_fanout": "2"},
    "F": {**_ID_ORDERED, "max_fanout": "O(num_ports)+2"},
    "FT": {**_ID_ORDERED, "max_fanout": "O(num_ports)+2"},
    "G": {**_ID_ORDERED, "max_fanout": "O(num_ports)+2"},
    "HS": {**_ID_ORDERED, "max_fanout": "2"},
    "LMW86": {**_ID_ORDERED, "max_fanout": "O(num_ports)+3"},
    "R": {**_ID_ORDERED, "max_fanout": "O(num_ports)+2"},
    "RS": {**_COIN_FLIPPING, "max_fanout": "O(num_ports)+1"},
    "RT": {**_COIN_FLIPPING, "max_fanout": "O(num_ports)+1"},
}

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures/lint"


def _load_fixture(stem):
    """Import one fixture module from tests/fixtures/lint by path."""
    name = f"lint_fixture_{stem}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, FIXTURES / f"{stem}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_registry_has_the_papers_fourteen_protocols():
    assert set(registered_protocols()) == set(HAND_CLASSIFICATION)


def test_live_derivation_matches_the_pin():
    for name, cls in sorted(registered_protocols().items()):
        derived = capability_for(cls).to_dict()
        for key, value in HAND_CLASSIFICATION[name].items():
            assert derived[key] == value, (name, key)


def test_every_registered_protocol_is_id_comparing():
    # Each deterministic protocol's implementation modules contain at
    # least one RPL020 site, and no-sense protocols additionally scan
    # ports numerically.  The randomized family compares ranks as opaque
    # tuples (no RPL020 sites) and breaks symmetry by coin flips.
    for name, cls in sorted(registered_protocols().items()):
        capability = capability_for(cls)
        if capability.uses_ctx_rng:
            assert capability.rotation_equivariant, name
            continue
        assert capability.id_order_sites > 0, name
        assert not capability.rotation_equivariant, name
        assert not capability.relabelling_equivariant, name


def test_id_oblivious_protocol_derives_as_equivariant():
    # Unregistered: its capability is derived like any other protocol's.
    protocol_cls = _load_fixture("equivariant_ok").SilentProtocol
    capability = capability_for(protocol_cls)
    assert capability.id_order_sites == 0
    assert capability.port_scan_sites == 0
    assert capability.relabelling_equivariant
