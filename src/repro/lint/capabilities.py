"""Per-protocol symmetry capabilities, derived from the equivariance rules.

For each registered protocol we resolve the set of source modules its
implementation actually consists of — the protocol class's MRO plus the
MRO of the node class named by ``create_node``'s return annotation,
minus the framework layers (``repro.core``, stdlib) — and count the
RPL020/RPL021 sites the linter finds in them.  Suppressed findings count
too: a ``lint-ok`` comment acknowledges an id-ordering site, it does not
make the construct equivariant.

The derived booleans:

* ``rotation_equivariant`` — no id-order sites.  Sound to orbit-prune
  under sense of direction (the rotation group never touches port
  numbering there).
* ``relabelling_equivariant`` — no id-order sites *and* no port-order
  scans.  Sound to orbit-prune under hidden wiring, where the group also
  permutes every node's port labels.

:func:`capability_for` is the one source of these facts: the prune gate
(``verification/symmetry``), the matrix spec loader, the sharded
kernel's refusal and ``verify --stat`` all derive them live, once per
protocol class.  ``derive_capability_table()`` renders the table for
every registered protocol (``python -m repro lint --capabilities``);
``tests/lint/test_capabilities.py`` pins the expected values literally.
"""

from __future__ import annotations

import inspect
import json
import typing
from dataclasses import dataclass
from pathlib import Path

from .core import ModuleContext
from .equivariance import check_equivariance

#: Version 2 adds the flow-derived behavioural fields (``uses_timers``,
#: ``uses_rng``, ``max_fanout``, ``quiescent_kinds``).
CAPABILITY_TABLE_VERSION = 2

#: Modules that are framework (or stdlib plumbing), not protocol
#: implementation.  Everything else in a protocol/node MRO — including
#: third-party or test-fixture protocols living outside ``repro`` — is
#: part of the implementation and gets analysed.
_FRAMEWORK_PREFIXES = ("repro.core", "repro.topology")
_STDLIB_MODULES = {"builtins", "abc", "typing", "dataclasses", "enum"}


@dataclass(frozen=True)
class ProtocolCapability:
    """What the equivariance and flow analyses measured for one protocol.

    The v2 fields come from the interprocedural flow automaton
    (:mod:`repro.lint.flow`): timers and entropy make exhaustive
    exploration and sharded scheduling unsound to optimise, ``max_fanout``
    is the symbolic per-activation send bound the conformance probe
    enforces at runtime, and ``quiescent_kinds`` are handled kinds that
    provably send nothing (pure sinks).
    """

    protocol: str
    modules: tuple[str, ...]
    id_order_sites: int
    port_scan_sites: int
    uses_timers: bool = False
    uses_rng: bool = False
    #: Draws from the seeded per-node ``ctx.rng()`` stream — deterministic
    #: under a pinned run seed (and digest-safe to shard), unlike
    #: ``uses_rng``'s module-level entropy, but still outside what the
    #: equivariance argument covers, so symmetry pruning refuses it.
    uses_ctx_rng: bool = False
    max_fanout: str = "0"
    quiescent_kinds: tuple[str, ...] = ()

    @property
    def rotation_equivariant(self) -> bool:
        return self.id_order_sites == 0

    @property
    def relabelling_equivariant(self) -> bool:
        return self.id_order_sites == 0 and self.port_scan_sites == 0

    def to_dict(self) -> dict:
        """JSON-ready form: one entry of ``lint --capabilities``."""
        return {
            "modules": list(self.modules),
            "id_order_sites": self.id_order_sites,
            "port_scan_sites": self.port_scan_sites,
            "rotation_equivariant": self.rotation_equivariant,
            "relabelling_equivariant": self.relabelling_equivariant,
            "uses_timers": self.uses_timers,
            "uses_rng": self.uses_rng,
            "uses_ctx_rng": self.uses_ctx_rng,
            "max_fanout": self.max_fanout,
            "quiescent_kinds": list(self.quiescent_kinds),
        }


def _is_framework_module(name: str) -> bool:
    if name in _STDLIB_MODULES:
        return True
    return any(
        name == prefix or name.startswith(prefix + ".")
        for prefix in _FRAMEWORK_PREFIXES
    )


def _node_class(protocol_cls: type) -> type | None:
    """The node class named by ``create_node``'s return annotation."""
    for klass in protocol_cls.__mro__:
        fn = klass.__dict__.get("create_node")
        if fn is None:
            continue
        try:
            hints = typing.get_type_hints(fn)
        except Exception:
            return None
        returned = hints.get("return")
        if isinstance(returned, type):
            return returned
        return None
    return None


def implementation_modules(protocol_cls: type) -> tuple[str, ...]:
    """Sorted module names making up one protocol's implementation."""
    classes: list[type] = list(protocol_cls.__mro__)
    node_cls = _node_class(protocol_cls)
    if node_cls is not None:
        classes.extend(node_cls.__mro__)
    modules: set[str] = set()
    for klass in classes:
        module = getattr(klass, "__module__", "")
        if module and not _is_framework_module(module):
            modules.add(module)
    return tuple(sorted(modules))


def _module_source_file(module_name: str) -> Path | None:
    import importlib
    import sys

    module = sys.modules.get(module_name)
    if module is None:
        module = importlib.import_module(module_name)
    try:
        source = inspect.getsourcefile(module)
    except TypeError:  # built-in or extension module: nothing to analyse
        return None
    return Path(source) if source else None


_CAPABILITY_CACHE: dict[type, ProtocolCapability] = {}


def capability_for(protocol_cls: type) -> ProtocolCapability:
    """Derive (and cache) the capability of one protocol class."""
    cached = _CAPABILITY_CACHE.get(protocol_cls)
    if cached is not None:
        return cached
    modules = implementation_modules(protocol_cls)
    id_sites = 0
    port_sites = 0
    for module_name in modules:
        path = _module_source_file(module_name)
        if path is None:  # pragma: no cover - all repro modules have files
            continue
        ctx = ModuleContext(path)
        for finding in check_equivariance(ctx):
            if finding.code == "RPL020":
                id_sites += 1
            elif finding.code == "RPL021":
                port_sites += 1
    from .flow import analyze_protocol

    automaton = analyze_protocol(protocol_cls)
    capability = ProtocolCapability(
        protocol=getattr(protocol_cls, "name", protocol_cls.__name__),
        modules=modules,
        id_order_sites=id_sites,
        port_scan_sites=port_sites,
        uses_timers=automaton.uses_timers,
        uses_rng=automaton.uses_rng,
        uses_ctx_rng=automaton.uses_ctx_rng,
        max_fanout=automaton.max_fanout.describe(),
        quiescent_kinds=automaton.quiescent_kinds,
    )
    _CAPABILITY_CACHE[protocol_cls] = capability
    return capability


def derive_capability_table() -> dict:
    """Live capability table for every registered protocol."""
    import repro  # noqa: F401  (importing repro registers all protocols)
    from repro.core.protocol import registered_protocols

    protocols = {
        name: capability_for(cls).to_dict()
        for name, cls in sorted(registered_protocols().items())
    }
    return {
        "version": CAPABILITY_TABLE_VERSION,
        "tool": "repro-lint",
        "protocols": protocols,
    }


def render_capability_table() -> str:
    """The live table as the JSON text ``--capabilities`` prints."""
    return json.dumps(derive_capability_table(), indent=2) + "\n"
