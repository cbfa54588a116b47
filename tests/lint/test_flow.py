"""The interprocedural flow analyzer: lattice, RPL03x rules, capability
v2 consumers, and the runtime conformance probe.

Four contracts from the analyzer's acceptance criteria are pinned here:

1. every planted RPL03x fixture is caught with the documented code at
   the planted line, and the shipped protocol/app layers self-host clean
   under ``--flow``;
2. ``repro analyze`` derives a finite per-activation bound for all
   fourteen protocols, consistent with the paper's message table;
3. the v2 capability fields actually gate their consumers — timered
   protocols are refused by the sharded kernel, entropy-importing ones
   by the matrix loader;
4. the runtime probe refutes a static bound the code evades
   (``getattr(ctx, "se" + "nd")``), and confirms all fourteen shipped
   protocols within their bounds.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import repro  # noqa: F401  (imports register every protocol)
from repro.core.errors import ConfigurationError
from repro.core.protocol import registered_protocols
from repro.lint import lint_paths
from repro.lint.flow import FanOut, analyze_protocol
from repro.lint.flow.cli import PAPER_MESSAGE_BOUNDS, is_consistent
from repro.lint.flow.conformance import probe_protocol_class

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


def _load_fixture(stem: str):
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


class TestLattice:
    def test_constant_arithmetic(self):
        two = FanOut.constant(2)
        assert two.add(FanOut.constant(3)).describe() == "5"
        assert two.join(FanOut.constant(3)).describe() == "3"
        assert two.bound(10) == 2

    def test_linear_absorbs_constants(self):
        lin = FanOut.linear(1, 0)
        assert lin.describe() == "O(num_ports)"
        assert lin.add(FanOut.constant(3)).describe() == "O(num_ports)+3"
        # Join is the pointwise max (sound over both branches), so the
        # constant rides along as the linear term's offset.
        assert lin.join(FanOut.constant(100)).bound(7) == 107
        assert lin.add(lin).bound(7) == 14

    def test_loop_nesting_tops_out(self):
        lin = FanOut.linear(1, 0)
        assert lin.times(FanOut.constant(3)).bound(5) == 15
        assert lin.times(lin).is_top
        assert FanOut.top().bound(5) is None
        assert FanOut.zero().times(FanOut.top()).is_zero


class TestPlantedFixtures:
    def _flow_codes(self, stem):
        result = lint_paths([FIXTURES / f"{stem}.py"], flow=True)
        return [
            (f.code, f.line)
            for f in result.findings
            if f.code.startswith("RPL03")
        ]

    def test_amplification_cycle_is_rpl030(self):
        assert self._flow_codes("flow_amplification") == [("RPL030", 32)]

    def test_dead_and_shadowed_handlers_are_rpl031(self):
        assert self._flow_codes("flow_dead_handler") == [
            ("RPL031", 33),
            ("RPL031", 37),
        ]

    def test_unbounded_fanout_is_rpl032(self):
        assert self._flow_codes("flow_unbounded") == [("RPL032", 29)]

    def test_flow_pass_is_opt_in(self):
        # Without ``flow=True`` the same fixtures raise no RPL03x.
        for stem in ("flow_amplification", "flow_unbounded"):
            result = lint_paths([FIXTURES / f"{stem}.py"])
            assert not any(
                f.code.startswith("RPL03") for f in result.findings
            )


@pytest.mark.lint_smoke
class TestSelfHost:
    def test_shipped_layers_are_flow_clean(self):
        result = lint_paths(
            [REPO_ROOT / "src/repro/protocols", REPO_ROOT / "src/repro/apps"],
            flow=True,
        )
        assert result.ok, [str(f) for f in result.findings]

    def test_suppressed_equivariance_sites_survive_the_flow_pass(self):
        # flow=True must not eat the suppressed-but-counted RPL020/021
        # records the capability derivation feeds on.
        plain = lint_paths([REPO_ROOT / "src/repro/protocols"])
        flowed = lint_paths([REPO_ROOT / "src/repro/protocols"], flow=True)
        assert [f.code for f in flowed.suppressed] == [
            f.code for f in plain.suppressed
        ]


class TestAnalyzeBounds:
    def test_every_protocol_has_a_finite_consistent_bound(self):
        for name, cls in sorted(registered_protocols().items()):
            automaton = analyze_protocol(cls)
            assert automaton.max_fanout.is_finite, name
            assert is_consistent(automaton), name
            assert name in PAPER_MESSAGE_BOUNDS, name

    def test_constant_protocols_stay_constant(self):
        # The ring-style protocols forward O(1) messages per activation;
        # a LINEAR bound here would mean the analyzer lost precision.
        for name in ("AG85", "CR", "E", "HS"):
            automaton = analyze_protocol(registered_protocols()[name])
            assert automaton.max_fanout.bound(10_000) <= 2, name

    def test_analyze_cli_rejects_bad_usage(self, capsys):
        from repro.lint.flow.cli import main

        assert main(["--n", "1"]) == 2
        assert main(["--protocol", "nope"]) == 2
        capsys.readouterr()


class TestCapabilityConsumers:
    def test_shard_kernel_refuses_timered_protocols(self):
        from repro.sim.shard import ShardedNetwork
        from repro.topology.complete import complete_without_sense

        protocol = _load_fixture("flow_timered").TimeredProtocol()
        with pytest.raises(ConfigurationError, match="timer"):
            ShardedNetwork(
                protocol, complete_without_sense(8, seed=0), shards=2
            )

    def test_shard_kernel_refuses_rng_protocols(self):
        from repro.sim.shard import ShardedNetwork
        from repro.topology.complete import complete_without_sense

        protocol = _load_fixture("flow_rng").RngProtocol()
        with pytest.raises(ConfigurationError, match="uses_rng"):
            ShardedNetwork(
                protocol, complete_without_sense(8, seed=0), shards=2
            )

    def test_shard_kernel_accepts_every_registered_protocol(self):
        # The gate must be transparent for the shipped table: phase 5 of
        # check --all runs these sharded, so construction may not refuse.
        from repro.sim.shard import _refuse_unshardable_protocol

        for name, cls in sorted(registered_protocols().items()):
            _refuse_unshardable_protocol(cls())

    def test_matrix_loader_refuses_rng_protocols(self, monkeypatch):
        from repro.core.protocol import _REGISTRY
        from repro.matrix.spec import ScenarioSpec, validate_spec

        cls = _load_fixture("flow_rng").RngProtocol
        monkeypatch.setitem(_REGISTRY, cls.name, cls)
        spec = ScenarioSpec(
            tag="rng-row",
            protocols=(cls.name,),
            scenarios=("benign",),
            ns=(8,),
        )
        with pytest.raises(ConfigurationError, match="uses_rng"):
            validate_spec(spec)


class TestConformanceProbe:
    def test_every_registered_protocol_conforms(self):
        for name, cls in sorted(registered_protocols().items()):
            verdict = probe_protocol_class(cls)
            assert verdict["ok"], (name, verdict["violations"])
            assert verdict["measured_max"] <= verdict["static_bound"], name

    def test_obfuscated_send_is_caught_at_runtime(self):
        # The whole point of the probe: the analyzer sees fan-out 0
        # through ``getattr(ctx, "se" + "nd")``, the runtime counts 3.
        module = _load_fixture("flow_sneaky")
        automaton = analyze_protocol(module.SneakyProtocol)
        assert automaton.max_fanout.is_zero  # statically invisible

        verdict = probe_protocol_class(module.SneakyProtocol, n=4)
        assert not verdict["ok"]
        (violation,) = verdict["violations"]
        assert violation["trigger"] == "wake"
        assert violation["measured"] == 3
        assert violation["bound"] == 0
