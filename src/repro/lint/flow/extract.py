"""AST extraction and interprocedural effect summaries.

The analyzer works on a *universe* of parsed files — the lint targets plus
the transitive closure of their ``repro.*`` imports — so that layered
protocols resolve: ``capture_base`` defines ``claim``/``_forward``, the
concrete protocol modules match the kinds, ``common.py`` holds the role
vocabulary, and ``super().on_message(...)`` chains walk an approximated
MRO built from class names.

For one concrete node class and one trigger (``"wake"`` or a message
kind), :class:`Analyzer` abstractly interprets the dispatched handler:

* sequential statements **add** fan-outs, branches **join** (pointwise
  max), loops **multiply** by a classified trip count;
* ``match``/``isinstance`` dispatch over the bound message kind selects
  the matching arm only, so per-kind summaries stay precise;
* helper calls (``self.claim(...)``, module functions) inline the callee's
  summary, with message-kind bindings flowing through arguments and
  ``make_reply``-style factories contributing their *return kinds*;
* alongside the ``may`` fan-out (worst case, used for bounds) the
  interpreter tracks a ``must`` count — messages **every** execution of
  the handler emits — which is what amplification-cycle detection needs:
  a cycle only explodes when every traversal multiplies, and any
  terminating branch (a contest loss, a guard return) breaks the cycle.

Recursion through the call graph widens the whole summary to ``⊤``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..core import ModuleContext, dotted_name, terminal_name
from .lattice import FanOut

#: Modules whose imports seed the universe closure.
_REPRO_PREFIX = "repro"

#: Entropy modules whose import marks a protocol as randomized.
RNG_MODULES = {"random", "secrets", "uuid"}


# ---------------------------------------------------------------------------
# Effects: the abstract value one statement/handler evaluates to.
# ---------------------------------------------------------------------------


#: Kind used for sends whose message expression could not be resolved.
UNKNOWN_KIND = "?"


@dataclass(frozen=True)
class SendRecord:
    """One ``ctx.send`` site, scaled by its enclosing loops."""

    call: ast.Call
    module: ModuleContext | None  # None when the site is in a support file
    kinds: tuple[str, ...]
    port_class: str
    fanout: FanOut

    def scale(self, multiplier: FanOut) -> "SendRecord":
        """This site with its fan-out multiplied by an enclosing loop."""
        return replace(self, fanout=self.fanout.times(multiplier))


@dataclass(frozen=True)
class Effects:
    """May/must fan-out per kind, total fan-out, and the send sites."""

    may: tuple[tuple[str, FanOut], ...] = ()
    must: tuple[tuple[str, int], ...] = ()
    total: FanOut = field(default_factory=FanOut.zero)
    sites: tuple[SendRecord, ...] = ()
    recursive: bool = False

    @staticmethod
    def empty() -> "Effects":
        return _EMPTY

    @staticmethod
    def send(record: SendRecord) -> "Effects":
        may = tuple((kind, FanOut.constant(1)) for kind in record.kinds)
        # A send with several possible kinds guarantees *one of them*, not
        # any particular one — only single-kind sends produce must-flow.
        must = ((record.kinds[0], 1),) if len(record.kinds) == 1 else ()
        return Effects(
            may=may, must=must, total=FanOut.constant(1), sites=(record,)
        )

    def may_map(self) -> dict[str, FanOut]:
        """The ``may`` pairs as a dict (kind -> worst-case fan-out)."""
        return dict(self.may)

    def must_map(self) -> dict[str, int]:
        """The ``must`` pairs as a dict (kind -> guaranteed count)."""
        return dict(self.must)

    def seq(self, other: "Effects") -> "Effects":
        """Sequential composition: both happen, fan-outs add."""
        if other is _EMPTY:
            return self
        if self is _EMPTY:
            return other
        may = self.may_map()
        for kind, fan in other.may:
            may[kind] = may.get(kind, FanOut.zero()).add(fan)
        must = self.must_map()
        for kind, count in other.must:
            must[kind] = must.get(kind, 0) + count
        return Effects(
            may=tuple(sorted(may.items())),
            must=tuple(sorted(must.items())),
            total=self.total.add(other.total),
            sites=self.sites + other.sites,
            recursive=self.recursive or other.recursive,
        )

    def join(self, other: "Effects") -> "Effects":
        """Branch merge: ``may`` joins pointwise, ``must`` keeps the min."""
        may = self.may_map()
        for kind, fan in other.may:
            may[kind] = may.get(kind, FanOut.zero()).join(fan)
        ours, theirs = self.must_map(), other.must_map()
        must = {
            kind: min(ours.get(kind, 0), theirs.get(kind, 0))
            for kind in set(ours) | set(theirs)
        }
        return Effects(
            may=tuple(sorted(may.items())),
            must=tuple(sorted((k, c) for k, c in must.items() if c)),
            total=self.total.join(other.total),
            sites=self.sites + other.sites,
            recursive=self.recursive or other.recursive,
        )

    def scale(self, multiplier: FanOut, exact: int | None = None) -> "Effects":
        """Loop scaling; ``must`` survives only exact constant trip counts."""
        if self is _EMPTY:
            return self
        may = tuple(
            (kind, fan.times(multiplier)) for kind, fan in self.may
        )
        if exact is None:
            must: tuple[tuple[str, int], ...] = ()
        else:
            must = tuple(
                (kind, count * exact) for kind, count in self.must if count
            )
        return Effects(
            may=may,
            must=must,
            total=self.total.times(multiplier),
            sites=tuple(site.scale(multiplier) for site in self.sites),
            recursive=self.recursive,
        )

    def widened(self) -> "Effects":
        """Recursion detected somewhere below: nothing is bounded."""
        return replace(self.scale(FanOut.top()), recursive=False)


_EMPTY = Effects()


def join_all(items: Sequence[Effects]) -> Effects:
    """Fold :meth:`Effects.join` over ``items`` (empty -> no effects)."""
    if not items:
        return _EMPTY
    result = items[0]
    for item in items[1:]:
        result = result.join(item)
    return result


# ---------------------------------------------------------------------------
# The universe: parsed files, class tables, message classes.
# ---------------------------------------------------------------------------


@dataclass
class ClassInfo:
    """One class definition found in the universe."""

    name: str
    node: ast.ClassDef
    path: Path
    module: ModuleContext | None
    base_names: tuple[str, ...]
    methods: dict[str, ast.FunctionDef]
    app_messages: tuple[str, ...]


class Universe:
    """Every parsed file the analysis can see, indexed for resolution."""

    def __init__(
        self, targets: Sequence[ModuleContext], support: Sequence[tuple[Path, ast.Module]]
    ) -> None:
        self.targets = list(targets)
        self.files: list[tuple[Path, ast.Module, ModuleContext | None]] = [
            (ctx.path.resolve(), ctx.tree, ctx) for ctx in targets
        ]
        self.files.extend((path, tree, None) for path, tree in support)
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[tuple[Path, str], ast.FunctionDef] = {}
        self.message_classes: set[str] = set()
        self.loose_sent: set[str] = set()
        self._mro_cache: dict[str, tuple[str, ...]] = {}
        for path, tree, module in self.files:
            self._index_file(path, tree, module)

    def _index_file(
        self, path: Path, tree: ast.Module, module: ModuleContext | None
    ) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._index_class(stmt, path, module)
            elif isinstance(stmt, ast.FunctionDef):
                self.functions[(path, stmt.name)] = stmt
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = terminal_name(node.func)
                if name is not None and name[:1].isupper():
                    self.loose_sent.add(name)

    def _index_class(
        self, stmt: ast.ClassDef, path: Path, module: ModuleContext | None
    ) -> None:
        bases = tuple(
            name
            for base in stmt.bases
            if (name := terminal_name(base)) is not None
        )
        methods: dict[str, ast.FunctionDef] = {}
        app_messages: list[str] = []
        for item in stmt.body:
            if isinstance(item, ast.FunctionDef):
                methods[item.name] = item
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "APP_MESSAGES"
                        and isinstance(item.value, (ast.Tuple, ast.List))
                    ):
                        app_messages.extend(
                            name
                            for elt in item.value.elts
                            if (name := terminal_name(elt)) is not None
                        )
        info = ClassInfo(
            name=stmt.name,
            node=stmt,
            path=path,
            module=module,
            base_names=bases,
            methods=methods,
            app_messages=tuple(app_messages),
        )
        # First definition wins: target files shadow support files, which
        # matters when a fixture redefines a class name the repo also uses.
        self.classes.setdefault(stmt.name, info)
        if any(base.endswith("Message") for base in bases):
            self.message_classes.add(stmt.name)

    # -- class hierarchy ----------------------------------------------------

    def mro(self, class_name: str) -> tuple[str, ...]:
        """Left-to-right depth-first linearisation by class *name*.

        An approximation of Python's C3 that is exact for the single- and
        simple-multiple-inheritance shapes protocol code uses.
        """
        cached = self._mro_cache.get(class_name)
        if cached is not None:
            return cached
        order: list[str] = []
        stack = [class_name]
        seen: set[str] = set()
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            order.append(name)
            stack = list(info.base_names) + stack
        result = tuple(order)
        self._mro_cache[class_name] = result
        return result

    def is_message_subclass(self, kind: str, ancestor: str) -> bool:
        """Whether ``kind`` is ``ancestor`` or inherits from it."""
        if kind == ancestor:
            return True
        return ancestor in self.mro(kind)

    def node_classes(self) -> list[ClassInfo]:
        """Concrete node classes defined in *target* files."""
        result = []
        for info in self.classes.values():
            if info.module is None:
                continue
            chain = self.mro(info.name)
            last = self.classes.get(chain[-1]) if chain else None
            if last is not None and (
                last.name.endswith("Node")
                or any(b.endswith("Node") for b in last.base_names)
            ):
                result.append(info)
            elif any(name.endswith("Node") for name in chain[1:]) or any(
                b.endswith("Node") for b in info.base_names
            ):
                result.append(info)
        return sorted(result, key=lambda info: (str(info.path), info.name))

    def find_method(
        self, class_name: str, method: str, start: int = 0
    ) -> tuple[int, ClassInfo, ast.FunctionDef] | None:
        """Resolve ``method`` along ``class_name``'s MRO from ``start``."""
        chain = self.mro(class_name)
        for index in range(start, len(chain)):
            info = self.classes.get(chain[index])
            if info is not None and method in info.methods:
                return index, info, info.methods[method]
        return None

    def handled_kinds(self, class_name: str) -> set[str]:
        """Message kinds the class (or its mixins) dispatches on."""
        kinds: set[str] = set()
        for name in self.mro(class_name):
            info = self.classes.get(name)
            if info is None:
                continue
            kinds.update(
                k for k in info.app_messages if k in self.message_classes
            )
            for func in info.methods.values():
                for node in ast.walk(func):
                    if isinstance(node, ast.MatchClass):
                        matched = terminal_name(node.cls)
                        if matched in self.message_classes:
                            kinds.add(matched)
                    elif (
                        isinstance(node, ast.Call)
                        and terminal_name(node.func) == "isinstance"
                        and len(node.args) == 2
                    ):
                        spec = node.args[1]
                        elts = (
                            spec.elts
                            if isinstance(spec, ast.Tuple)
                            else [spec]
                        )
                        for elt in elts:
                            matched = terminal_name(elt)
                            if matched in self.message_classes:
                                kinds.add(matched)
        return kinds


def import_closure(
    seeds: Iterable[tuple[Path, ast.Module]],
) -> list[tuple[Path, ast.Module]]:
    """Transitive ``repro.*`` import closure of the seed files."""
    try:
        import repro
    except ImportError:  # pragma: no cover - repro is importable here
        return []
    root = Path(repro.__file__).resolve().parent
    seeds = list(seeds)
    seen = {path for path, _ in seeds}
    queue = [tree for _, tree in seeds]
    support: list[tuple[Path, ast.Module]] = []
    while queue:
        tree = queue.pop()
        for node in ast.walk(tree):
            modules: list[str] = []
            if isinstance(node, ast.Import):
                modules = [
                    a.name
                    for a in node.names
                    if a.name.startswith(_REPRO_PREFIX)
                ]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith(_REPRO_PREFIX):
                    modules = [node.module]
            for module in modules:
                rel = module.split(".")[1:]
                candidates = [
                    root.joinpath(*rel).with_suffix(".py"),
                    root.joinpath(*rel, "__init__.py"),
                ]
                for candidate in candidates:
                    if candidate.exists():
                        resolved = candidate.resolve()
                        if resolved in seen:
                            continue
                        seen.add(resolved)
                        try:
                            parsed = ast.parse(
                                resolved.read_text(), filename=str(resolved)
                            )
                        except SyntaxError:  # pragma: no cover
                            continue
                        support.append((resolved, parsed))
                        queue.append(parsed)
                        break
    return support


def build_universe(targets: Sequence[ModuleContext]) -> Universe:
    """Universe for a lint run: targets plus their import closure."""
    seeds = [(ctx.path.resolve(), ctx.tree) for ctx in targets]
    return Universe(targets, import_closure(seeds))


# ---------------------------------------------------------------------------
# Module-level behavioural scans (capabilities v2 raw facts).
# ---------------------------------------------------------------------------


def scan_uses_timers(trees: Iterable[ast.AST]) -> bool:
    """True when any tree arms a context timer (``...ctx.set_timer``)."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[-1] == "set_timer" and "ctx" in parts:
                    return True
    return False


def scan_uses_ctx_rng(trees: Iterable[ast.AST]) -> bool:
    """True when any tree draws from the context stream (``...ctx.rng``).

    Distinct from :func:`scan_uses_rng` on purpose: ``ctx.rng()`` is the
    *seeded, per-node* stream (:mod:`repro.sim.rng`), deterministic under
    a pinned run seed and digest-safe to shard, while a module-level
    entropy import escapes the seeding machinery entirely.  The two
    capabilities gate differently downstream (the shard kernel and the
    scenario matrix refuse only the latter).
    """
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[-1] == "rng" and "ctx" in parts:
                    return True
    return False


def scan_uses_rng(trees: Iterable[ast.Module]) -> bool:
    """True when any tree imports an entropy module."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(
                    alias.name.split(".")[0] in RNG_MODULES
                    for alias in node.names
                ):
                    return True
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] in RNG_MODULES:
                    return True
    return False


# ---------------------------------------------------------------------------
# The abstract interpreter.
# ---------------------------------------------------------------------------


@dataclass
class _Frame:
    """One method evaluation: the dynamic class and local bindings."""

    dyn_cls: str
    owner_index: int  # MRO index of the class defining the running method
    env: dict[str, frozenset[str]]
    loop_vars: set[str] = field(default_factory=set)
    module: ModuleContext | None = None
    path: Path | None = None
    returns: set[str] = field(default_factory=set)
    opaque_return: bool = False


@dataclass
class _BlockResult:
    """Effects of a statement block, split by how paths leave it."""

    fall: Effects | None  # paths reaching the end of the block
    term: Effects | None  # paths leaving via return/raise/break/continue


@dataclass(frozen=True)
class MethodSummary:
    effects: Effects
    return_kinds: frozenset[str] | None


_RECURSIVE = Effects(recursive=True)


class Analyzer:
    """Interprocedural effect analysis over one :class:`Universe`."""

    def __init__(self, universe: Universe) -> None:
        self.universe = universe
        self._memo: dict[tuple, MethodSummary] = {}
        self._stack: set[tuple] = set()

    # -- public entry points ------------------------------------------------

    def wake_effects(self, class_name: str) -> Effects:
        """Effects of one spontaneous wake-up of ``class_name``."""
        return self._entry_effects(class_name, "on_wake", None)

    def message_effects(self, class_name: str, kind: str) -> Effects:
        """Effects of delivering one ``kind`` message to ``class_name``."""
        return self._entry_effects(class_name, "on_message", kind)

    def leader_effects(self, class_name: str) -> Effects:
        """Effects of the app-layer ``on_leader_elected`` hook, if any."""
        return self._entry_effects(class_name, "on_leader_elected", None)

    def has_entry(self, class_name: str, method: str) -> bool:
        """Whether ``class_name`` defines a concrete (non-stub) ``method``."""
        resolved = self.universe.find_method(class_name, method)
        if resolved is None:
            return False
        _, _, func = resolved
        return not _is_abstract_stub(func)

    # -- summarisation ------------------------------------------------------

    def _entry_effects(
        self, class_name: str, method: str, kind: str | None
    ) -> Effects:
        resolved = self.universe.find_method(class_name, method)
        if resolved is None:
            return Effects.empty()
        index, info, func = resolved
        env: dict[str, frozenset[str]] = {}
        if kind is not None:
            params = _positional_params(func)
            if len(params) >= 2:
                # (self, port, message) — the message parameter is last.
                env[params[-1]] = frozenset({kind})
        summary = self._summarize(class_name, index, info, func, env)
        return summary.effects

    def _summarize(
        self,
        dyn_cls: str,
        owner_index: int,
        owner: ClassInfo,
        func: ast.FunctionDef,
        env: dict[str, frozenset[str]],
    ) -> MethodSummary:
        key = (
            dyn_cls,
            owner.name,
            func.name,
            tuple(sorted((k, tuple(sorted(v))) for k, v in env.items())),
        )
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._stack:
            return MethodSummary(_RECURSIVE, None)
        self._stack.add(key)
        try:
            frame = _Frame(
                dyn_cls=dyn_cls,
                owner_index=owner_index,
                env=dict(env),
                module=owner.module,
                path=owner.path,
            )
            result = self._eval_block(func.body, frame)
            effects = _merge_exits(result)
            if effects.recursive:
                effects = effects.widened()
            kinds = frozenset(frame.returns)
            summary = MethodSummary(
                effects, kinds if kinds and not frame.opaque_return else None
            )
        finally:
            self._stack.discard(key)
        self._memo[key] = summary
        return summary

    # -- statements ---------------------------------------------------------

    def _eval_block(
        self, stmts: Sequence[ast.stmt], frame: _Frame
    ) -> _BlockResult:
        fall: Effects | None = Effects.empty()
        term: Effects | None = None

        def terminate(effects: Effects) -> None:
            nonlocal term
            term = effects if term is None else term.join(effects)

        for stmt in stmts:
            if fall is None:
                break  # unreachable after an unconditional exit
            if isinstance(stmt, ast.Return):
                eff, kinds = (
                    self._eval_expr(stmt.value, frame)
                    if stmt.value is not None
                    else (Effects.empty(), None)
                )
                if stmt.value is not None:
                    if kinds:
                        frame.returns.update(kinds)
                    elif not _is_trivial_return(stmt.value):
                        frame.opaque_return = True
                terminate(fall.seq(eff))
                fall = None
            elif isinstance(stmt, ast.Raise):
                eff = Effects.empty()
                if stmt.exc is not None:
                    eff, _ = self._eval_expr(stmt.exc, frame)
                terminate(fall.seq(eff))
                fall = None
            elif isinstance(stmt, (ast.Break, ast.Continue)):
                terminate(fall)
                fall = None
            elif isinstance(stmt, ast.If):
                cond, _ = self._eval_expr(stmt.test, frame)
                pre = fall.seq(cond)
                fall = self._eval_branches(
                    pre, [stmt.body, stmt.orelse], frame, terminate
                )
            elif isinstance(stmt, ast.Match):
                fall = self._eval_match(stmt, fall, frame, terminate)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                fall = fall.seq(self._eval_for(stmt, frame))
            elif isinstance(stmt, ast.While):
                fall = fall.seq(self._eval_while(stmt, frame))
            elif isinstance(stmt, ast.Expr):
                eff, _ = self._eval_expr(stmt.value, frame)
                fall = fall.seq(eff)
            elif isinstance(stmt, ast.Assign):
                eff, kinds = self._eval_expr(stmt.value, frame)
                fall = fall.seq(eff)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if kinds:
                            frame.env[target.id] = kinds
                        else:
                            frame.env.pop(target.id, None)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    eff, kinds = self._eval_expr(stmt.value, frame)
                    fall = fall.seq(eff)
                    if isinstance(stmt.target, ast.Name) and kinds:
                        frame.env[stmt.target.id] = kinds
            elif isinstance(stmt, ast.AugAssign):
                eff, _ = self._eval_expr(stmt.value, frame)
                fall = fall.seq(eff)
            elif isinstance(stmt, ast.Try):
                fall = fall.seq(self._eval_try(stmt, frame))
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    eff, _ = self._eval_expr(item.context_expr, frame)
                    fall = fall.seq(eff)
                inner = self._eval_block(stmt.body, frame)
                fall = fall.seq(_merge_exits(inner))
            elif isinstance(stmt, ast.Assert):
                eff, _ = self._eval_expr(stmt.test, frame)
                fall = fall.seq(eff)
            # FunctionDef/ClassDef/Import/Pass/Global/Delete: no effects.
        return _BlockResult(fall, term)

    def _eval_branches(
        self,
        pre: Effects,
        branches: Sequence[Sequence[ast.stmt]],
        frame: _Frame,
        terminate: Callable[[Effects], None],
    ) -> Effects | None:
        """Join the branch blocks, routing exited paths to ``terminate``."""
        fall_candidates: list[Effects] = []
        for body in branches:
            result = self._eval_block(list(body), frame)
            if result.term is not None:
                terminate(pre.seq(result.term))
            if result.fall is not None:
                fall_candidates.append(pre.seq(result.fall))
        if not fall_candidates:
            return None
        return join_all(fall_candidates)

    # -- match dispatch ------------------------------------------------------

    def _eval_match(
        self,
        stmt: ast.Match,
        fall: Effects,
        frame: _Frame,
        terminate: Callable[[Effects], None],
    ) -> Effects | None:
        subject_eff, kinds = self._eval_expr(stmt.subject, frame)
        pre = fall.seq(subject_eff)
        if kinds is None:
            # Unknown subject: any arm may run (or none, without wildcard).
            branches = [list(case.body) for case in stmt.cases]
            if not any(_is_wildcard(case.pattern) for case in stmt.cases):
                branches.append([])
            return self._eval_branches(pre, branches, frame, terminate)

        arms: list[list[ast.stmt]] = []
        remaining = set(kinds)
        for case in stmt.cases:
            if not remaining:
                break
            matched = {
                kind
                for kind in remaining
                if self._pattern_matches(case.pattern, kind)
            }
            if not matched:
                continue
            arms.append(list(case.body))
            if case.guard is None:
                remaining -= matched
            # A guarded arm may fall through to later arms: keep the kinds.
        if remaining:
            arms.append([])  # no arm matched: the match is a no-op
        return self._eval_branches(pre, arms, frame, terminate)

    def _pattern_matches(self, pattern: ast.pattern, kind: str) -> bool:
        if isinstance(pattern, ast.MatchClass):
            name = terminal_name(pattern.cls)
            return name is not None and self.universe.is_message_subclass(
                kind, name
            )
        if isinstance(pattern, ast.MatchAs):
            if pattern.pattern is None:
                return True  # wildcard / capture
            return self._pattern_matches(pattern.pattern, kind)
        if isinstance(pattern, ast.MatchOr):
            return any(
                self._pattern_matches(p, kind) for p in pattern.patterns
            )
        return False

    # -- loops ---------------------------------------------------------------

    def _eval_for(self, stmt: ast.For | ast.AsyncFor, frame: _Frame) -> Effects:
        iter_eff, _ = self._eval_expr(stmt.iter, frame)
        multiplier, exact = _classify_for(stmt)
        added = set()
        if isinstance(stmt.target, ast.Name):
            if stmt.target.id not in frame.loop_vars:
                frame.loop_vars.add(stmt.target.id)
                added.add(stmt.target.id)
        body = _merge_exits(self._eval_block(stmt.body, frame))
        frame.loop_vars -= added
        orelse = _merge_exits(self._eval_block(stmt.orelse, frame))
        return iter_eff.seq(body.scale(multiplier, exact)).seq(orelse)

    def _eval_while(self, stmt: ast.While, frame: _Frame) -> Effects:
        test_eff, _ = self._eval_expr(stmt.test, frame)
        multiplier = _classify_while(stmt)
        body = _merge_exits(self._eval_block(stmt.body, frame))
        orelse = _merge_exits(self._eval_block(stmt.orelse, frame))
        return test_eff.seq(body.scale(multiplier, None)).seq(orelse)

    def _eval_try(self, stmt: ast.Try, frame: _Frame) -> Effects:
        body = _merge_exits(self._eval_block(stmt.body, frame))
        handlers = join_all(
            [Effects.empty()]
            + [
                _merge_exits(self._eval_block(h.body, frame))
                for h in stmt.handlers
            ]
        )
        orelse = _merge_exits(self._eval_block(stmt.orelse, frame))
        final = _merge_exits(self._eval_block(stmt.finalbody, frame))
        return body.seq(handlers).seq(orelse).seq(final)

    # -- expressions ---------------------------------------------------------

    def _eval_expr(
        self, expr: ast.expr | None, frame: _Frame
    ) -> tuple[Effects, frozenset[str] | None]:
        if expr is None:
            return Effects.empty(), None
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, frame)
        if isinstance(expr, ast.Name):
            return Effects.empty(), frame.env.get(expr.id)
        if isinstance(expr, ast.IfExp):
            test_eff, _ = self._eval_expr(expr.test, frame)
            body_eff, body_kinds = self._eval_expr(expr.body, frame)
            else_eff, else_kinds = self._eval_expr(expr.orelse, frame)
            kinds = (
                body_kinds | else_kinds
                if body_kinds is not None and else_kinds is not None
                else None
            )
            return test_eff.seq(body_eff.join(else_eff)), kinds
        if isinstance(expr, ast.NamedExpr):
            eff, kinds = self._eval_expr(expr.value, frame)
            if isinstance(expr.target, ast.Name) and kinds:
                frame.env[expr.target.id] = kinds
            return eff, kinds
        if isinstance(expr, ast.BoolOp):
            eff = Effects.empty()
            for value in expr.values:
                sub, _ = self._eval_expr(value, frame)
                eff = eff.seq(sub)
            return eff, None
        if isinstance(expr, (ast.Lambda, ast.Constant)):
            return Effects.empty(), None
        # Generic traversal: evaluate child expressions sequentially.
        eff = Effects.empty()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                sub, _ = self._eval_expr(child, frame)
                eff = eff.seq(sub)
            elif isinstance(child, ast.comprehension):
                sub, _ = self._eval_expr(child.iter, frame)
                eff = eff.seq(sub)
        return eff, None

    def _eval_call(
        self, call: ast.Call, frame: _Frame
    ) -> tuple[Effects, frozenset[str] | None]:
        func = call.func

        # 1. ctx.send(port, message) — the accounting choke point.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "send"
            and terminal_name(func.value) == "ctx"
        ):
            return self._eval_send(call, frame), None

        # 2. Message constructor.
        name = terminal_name(func)
        if (
            isinstance(func, ast.Name)
            and name in self.universe.message_classes
        ):
            eff = self._eval_args(call, frame)
            return eff, frozenset({name})

        # 3. super().method(...) — continue along the dynamic MRO.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and terminal_name(func.value.func) == "super"
        ):
            resolved = self.universe.find_method(
                frame.dyn_cls, func.attr, frame.owner_index + 1
            )
            return self._eval_resolved_call(call, resolved, frame)

        # 4. self.method(...) — dynamic dispatch from the concrete class.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            resolved = self.universe.find_method(frame.dyn_cls, func.attr)
            if resolved is not None:
                return self._eval_resolved_call(call, resolved, frame)
            return self._eval_args(call, frame), None

        # 5. Module-level helper in the same file.
        if isinstance(func, ast.Name) and frame.path is not None:
            helper = self.universe.functions.get((frame.path, func.id))
            if helper is not None:
                return self._eval_function_call(call, helper, frame)

        # Unknown callable: evaluate arguments for their effects only.
        return self._eval_args(call, frame), None

    def _eval_send(self, call: ast.Call, frame: _Frame) -> Effects:
        port_expr = call.args[0] if call.args else None
        message_expr: ast.expr | None = None
        if len(call.args) > 1:
            message_expr = call.args[1]
        else:
            for kw in call.keywords:
                if kw.arg == "message":
                    message_expr = kw.value
        port_eff, _ = self._eval_expr(port_expr, frame)
        msg_eff, kinds = self._eval_expr(message_expr, frame)
        record = SendRecord(
            call=call,
            module=frame.module,
            kinds=tuple(sorted(kinds)) if kinds else (UNKNOWN_KIND,),
            port_class=_classify_port(port_expr, frame),
            fanout=FanOut.constant(1),
        )
        return port_eff.seq(msg_eff).seq(Effects.send(record))

    def _eval_args(self, call: ast.Call, frame: _Frame) -> Effects:
        eff = Effects.empty()
        for arg in call.args:
            sub, _ = self._eval_expr(arg, frame)
            eff = eff.seq(sub)
        for kw in call.keywords:
            sub, _ = self._eval_expr(kw.value, frame)
            eff = eff.seq(sub)
        return eff

    def _eval_resolved_call(
        self,
        call: ast.Call,
        resolved: tuple[int, ClassInfo, ast.FunctionDef] | None,
        frame: _Frame,
    ) -> tuple[Effects, frozenset[str] | None]:
        if resolved is None:
            return self._eval_args(call, frame), None
        index, owner, func = resolved
        arg_eff, env = self._bind_arguments(call, func, frame)
        summary = self._summarize(frame.dyn_cls, index, owner, func, env)
        return arg_eff.seq(summary.effects), summary.return_kinds

    def _eval_function_call(
        self, call: ast.Call, func: ast.FunctionDef, frame: _Frame
    ) -> tuple[Effects, frozenset[str] | None]:
        arg_eff, env = self._bind_arguments(
            call, func, frame, skip_self=False
        )
        # Module functions carry no dynamic class; summarize against a
        # pseudo-owner keyed by the defining file.
        owner = ClassInfo(
            name=f"<module:{func.name}>",
            node=ast.ClassDef(
                name="", bases=[], keywords=[], body=[], decorator_list=[]
            ),
            path=frame.path or Path("."),
            module=frame.module,
            base_names=(),
            methods={func.name: func},
            app_messages=(),
        )
        key = (
            "<module>",
            str(owner.path),
            func.name,
            tuple(sorted((k, tuple(sorted(v))) for k, v in env.items())),
        )
        cached = self._memo.get(key)
        if cached is not None:
            return arg_eff.seq(cached.effects), cached.return_kinds
        if key in self._stack:
            return arg_eff.seq(_RECURSIVE), None
        self._stack.add(key)
        try:
            inner = _Frame(
                dyn_cls=frame.dyn_cls,
                owner_index=frame.owner_index,
                env=env,
                module=frame.module,
                path=frame.path,
            )
            result = self._eval_block(func.body, inner)
            effects = _merge_exits(result)
            if effects.recursive:
                effects = effects.widened()
            kinds = frozenset(inner.returns)
            summary = MethodSummary(
                effects,
                kinds if kinds and not inner.opaque_return else None,
            )
        finally:
            self._stack.discard(key)
        self._memo[key] = summary
        return arg_eff.seq(summary.effects), summary.return_kinds

    def _bind_arguments(
        self,
        call: ast.Call,
        func: ast.FunctionDef,
        frame: _Frame,
        skip_self: bool = True,
    ) -> tuple[Effects, dict[str, frozenset[str]]]:
        params = _positional_params(func)
        if skip_self and params and params[0] == "self":
            params = params[1:]
        env: dict[str, frozenset[str]] = {}
        eff = Effects.empty()
        for index, arg in enumerate(call.args):
            sub, kinds = self._eval_expr(arg, frame)
            eff = eff.seq(sub)
            if kinds and index < len(params):
                env[params[index]] = kinds
        for kw in call.keywords:
            sub, kinds = self._eval_expr(kw.value, frame)
            eff = eff.seq(sub)
            if kinds and kw.arg is not None:
                env[kw.arg] = kinds
        return eff, env


# ---------------------------------------------------------------------------
# Classification helpers.
# ---------------------------------------------------------------------------


def _positional_params(func: ast.FunctionDef) -> list[str]:
    args = func.args
    return [a.arg for a in args.posonlyargs + args.args]


def _merge_exits(result: _BlockResult) -> Effects:
    if result.fall is not None and result.term is not None:
        return result.fall.join(result.term)
    if result.fall is not None:
        return result.fall
    if result.term is not None:
        return result.term
    return Effects.empty()


def _is_trivial_return(expr: ast.expr) -> bool:
    """Returns that clearly carry no message value (None, ints, bools...)."""
    return isinstance(expr, ast.Constant)


def _is_abstract_stub(func: ast.FunctionDef) -> bool:
    """A body that only raises/passes/docstrings — not a real handler."""
    for stmt in func.body:
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ):
            continue  # docstring
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        return False
    return True


def _is_wildcard(pattern: ast.pattern) -> bool:
    return isinstance(pattern, ast.MatchAs) and pattern.pattern is None


def _classify_for(
    stmt: ast.For | ast.AsyncFor,
) -> tuple[FanOut, int | None]:
    """Trip-count bound for a ``for`` loop.

    ``range`` with all-constant arguments is exact; every other iterable —
    ``range`` over expressions, lists of ports, buffered state — is
    bounded by the node degree (protocol state is port-derived, so
    O(num_ports) entries), hence ``LINEAR``.
    """
    iterator = stmt.iter
    if (
        isinstance(iterator, ast.Call)
        and terminal_name(iterator.func) == "range"
        and iterator.args
        and all(
            isinstance(arg, ast.Constant) and isinstance(arg.value, int)
            for arg in iterator.args
        )
    ):
        values = [arg.value for arg in iterator.args]  # type: ignore[attr-defined]
        count = len(range(*values))
        return FanOut.constant(count), count
    return FanOut.linear(), None


def _classify_while(stmt: ast.While) -> FanOut:
    """Trip-count bound for a ``while`` loop.

    A constant-true condition has no static bound (``⊤``).  Conditions
    over protocol state (window refills, wave cursors) are bounded by the
    port-derived state they consume, hence ``LINEAR``.
    """
    test = stmt.test
    if isinstance(test, ast.Constant) and bool(test.value):
        return FanOut.top()
    return FanOut.linear()


def _classify_port(expr: ast.expr | None, frame: _Frame) -> str:
    """Coarse port-class of a send's first argument."""
    if expr is None:
        return "other"
    if isinstance(expr, ast.Call):
        if terminal_name(expr.func) == "port_with_label":
            return "labelled"
        return "other"
    dotted = dotted_name(expr)
    if dotted is not None:
        if dotted.endswith("owner_port"):
            return "owner"
        leaf = dotted.split(".")[-1]
        if isinstance(expr, ast.Name) and expr.id in frame.loop_vars:
            return "scan"
        if "port" in leaf:
            return "reply"
    return "other"
