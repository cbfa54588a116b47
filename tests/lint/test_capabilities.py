"""The linter-derived capability table and the ``--symmetry prune`` gate.

Pins three things: (1) the live derivation for every registered protocol
equals the literal per-protocol pin below, the only golden copy of these
facts; (2) the gate's allow/deny decisions follow it (all fourteen of the
paper's protocols compare identities, so prune is denied for every one
of them), and the gate actually *consults* the derivation: an
id-oblivious fixture protocol is allowed through; (3) the matrix spec
loader and ``ensure_prune_sound`` reach the same verdict with the same
reason text.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import repro  # noqa: F401  (imports register every protocol)
from repro.core.errors import ConfigurationError, ProtocolViolation
from repro.core.protocol import registered_protocols
from repro.lint.capabilities import capability_for
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)
from repro.verification import ensure_prune_sound, explore_protocol

#: The literal per-protocol pin.  ``prune`` is the hand-maintained
#: classification the derived gate replaced (the soundness prose in
#: ``verification/symmetry.py``): may ``--symmetry prune`` run?  Every
#: protocol resolves contests by identifier order, so the answer is
#: uniformly no.  The other keys are the derived capability fields the
#: sharded kernel, the matrix loader, the prune gate and the conformance
#: probe read.  Kept literal so a new protocol (or a refactor that drops
#: an id comparison, arms a timer or changes a fan-out bound) must
#: consciously update this dict.
#:
#: The randomized family breaks symmetry by coin flips, not id order:
#: syntactically equivariant (ranks are compared as opaque tuples), yet
#: prune stays denied because the per-node coin streams are seeded by
#: node identity (uses_ctx_rng) — relabelling changes the coins.
_ID_ORDERED = {
    "prune": False,
    "uses_timers": False,
    "uses_rng": False,
    "uses_ctx_rng": False,
    "rotation_equivariant": False,
    "relabelling_equivariant": False,
}
_COIN_FLIPPING = {
    "prune": False,
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


def _natural_topology(cls, n=4):
    if cls.needs_sense_of_direction:
        return complete_with_sense_of_direction(n)
    return complete_without_sense(n, seed=0)


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
            if key != "prune":
                assert derived[key] == value, (name, key)


def test_gate_decisions_match_the_hand_classification():
    for name, cls in sorted(registered_protocols().items()):
        protocol = cls()
        try:
            ensure_prune_sound(protocol, _natural_topology(cls))
            allowed = True
        except ConfigurationError:
            allowed = False
        assert allowed == HAND_CLASSIFICATION[name]["prune"], name


def test_every_registered_protocol_is_id_comparing():
    # The structural reason behind the uniform deny: each deterministic
    # protocol's implementation modules contain at least one RPL020 site,
    # and no-sense protocols additionally scan ports numerically.  The
    # randomized family is the exception that proves the gate consults
    # more than equivariance: RS/RT compare ranks as opaque tuples (no
    # RPL020 sites), yet stay denied through ``uses_ctx_rng``.
    for name, cls in sorted(registered_protocols().items()):
        capability = capability_for(cls)
        if capability.uses_ctx_rng:
            assert capability.rotation_equivariant, name
            continue
        assert capability.id_order_sites > 0, name
        assert not capability.rotation_equivariant, name
        assert not capability.relabelling_equivariant, name


def test_id_oblivious_protocol_passes_the_gate():
    protocol_cls = _load_fixture("equivariant_ok").SilentProtocol
    capability = capability_for(protocol_cls)
    assert capability.id_order_sites == 0
    assert capability.port_scan_sites == 0
    assert capability.relabelling_equivariant
    # Unregistered: the gate derives its capability like any other
    # protocol's — and lets it through.
    ensure_prune_sound(protocol_cls(), complete_with_sense_of_direction(3))


def test_gate_allows_prune_exploration_for_equivariant_protocol():
    # End to end: ``symmetry="prune"`` starts exploring (no
    # ConfigurationError) and it is the *protocol* that fails — a silent
    # protocol reaches quiescence with no leader.
    protocol_cls = _load_fixture("equivariant_ok").SilentProtocol
    with pytest.raises(ProtocolViolation):
        explore_protocol(
            protocol_cls(),
            complete_with_sense_of_direction(3),
            symmetry="prune",
        )


def test_spec_loader_and_gate_give_one_prune_verdict(monkeypatch):
    # One decision, two callers: a ``symmetry = "prune"`` spec row is
    # refused at load time exactly when ``ensure_prune_sound`` refuses the
    # protocol on the topology the verify phase explores, with the same
    # reason behind the row tag.
    from repro.core.protocol import _REGISTRY
    from repro.matrix.spec import ScenarioSpec, validate_spec

    classes = [cls for _, cls in sorted(registered_protocols().items())]
    classes += [
        _load_fixture("equivariant_ok").SilentProtocol,
        _load_fixture("flow_rng").RngProtocol,
    ]
    verdicts = []
    for cls in classes:
        monkeypatch.setitem(_REGISTRY, cls.name, cls)
        try:
            ensure_prune_sound(cls(), _natural_topology(cls))
            gate = None
        except ConfigurationError as error:
            gate = f"spec row 'prune-row': {error}"
        row = ScenarioSpec(
            tag="prune-row",
            protocols=(cls.name,),
            scenarios=("benign",),
            ns=(4,),
            symmetry="prune",
            verify_ns=(3,),
        )
        try:
            validate_spec(row)
            loader = None
        except ConfigurationError as error:
            loader = str(error)
        assert loader == gate, cls.name
        verdicts.append(gate is None)
    # The fixtures make both verdicts occur: equivariant_ok is allowed,
    # flow_rng (uses_rng) and every registered protocol are refused.
    assert verdicts == [False] * (len(classes) - 2) + [True, False]
