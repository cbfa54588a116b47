"""Symmetry-equivariance rules (RPL020–RPL021).

A symmetry reduction would explore one representative per orbit of the
relabelling group (rotations under sense of direction, the full symmetric
group under hidden wiring).  That quotient only preserves *outcomes* if
the protocol is equivariant under the group: relabelling the nodes must
relabel the execution.  Two syntactic constructs break that, and these
rules mark where a protocol uses them — where it breaks symmetry:

* **RPL020 — id-order site.**  Ordering identifiers (``<``, ``>``,
  ``.outranks(...)``) or doing arithmetic on them pins the execution to
  the concrete labelling — a rotation maps "node 3 beats node 1" to
  "node 4 beats node 2", which is a *different* contest outcome.
  Equality tests (``==``/``is``) commute with any bijective relabelling
  and are allowed.
* **RPL021 — port-order scan.**  Under hidden wiring the group also
  permutes each node's port numbering, so iterating ports in a fixed
  numeric order (``self._next_port += 1``, ``range(k)`` not derived from
  ``num_ports``) is only rotation-safe, never relabelling-safe.

These findings double as *measurements*: :mod:`repro.lint.capabilities`
counts them per protocol (suppressed or not — a ``lint-ok`` comment
acknowledges a site, it does not make the construct equivariant) into
the capability table.  Every paper protocol has id-order sites, which is
why the exhaustive checker has no symmetry reduction.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, ModuleContext, module_checker, rule, terminal_name

RPL020 = rule(
    "RPL020",
    "id-order-site",
    "equivariance",
    "Identifier ordering/arithmetic breaks relabelling-equivariance",
)
RPL021 = rule(
    "RPL021",
    "port-order-scan",
    "equivariance",
    "Fixed port-numbering scan breaks hidden-wiring equivariance",
)

#: Terminal names whose values carry node identities.  ``cand`` and
#: ``leader_id`` are the field names every protocol/message in this repo
#: uses for "a candidate's identity in flight".
ID_NAMES = {"node_id", "cand", "leader_id"}

_ORDER_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _mentions_id(node: ast.AST) -> str | None:
    """The first id-carrying terminal name inside ``node``, if any."""
    for sub in ast.walk(node):
        name = terminal_name(sub)
        if name in ID_NAMES:
            return name
    return None


def _id_order_findings(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Compare):
            if not any(isinstance(op, _ORDER_OPS) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            for operand in operands:
                name = _mentions_id(operand)
                if name is not None:
                    yield ctx.finding(
                        "RPL020",
                        node,
                        f"order comparison involving identifier '{name}': "
                        "relabelling the nodes changes the outcome "
                        "(equality tests are equivariant, orderings are "
                        "not)",
                    )
                    break
        elif isinstance(node, ast.Call):
            if terminal_name(node.func) == "outranks":
                yield ctx.finding(
                    "RPL020",
                    node,
                    "Strength.outranks() resolves contests by identifier "
                    "order (lexicographic (rank, node_id)): not "
                    "relabelling-equivariant",
                )
        elif isinstance(node, ast.BinOp):
            name = _mentions_id(node)
            if name is not None:
                yield ctx.finding(
                    "RPL020",
                    node,
                    f"arithmetic on identifier '{name}': identifier values "
                    "must be treated as opaque tokens for symmetry pruning "
                    "to be sound",
                )


def _port_scan_findings(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.AugAssign):
            name = terminal_name(node.target)
            if name is not None and "port" in name.lower():
                yield ctx.finding(
                    "RPL021",
                    node,
                    f"sequential port cursor '{name}': scanning ports in "
                    "numeric order fixes a traversal the hidden-wiring "
                    "relabelling group does not preserve",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            target = node.target
            target_name = (
                target.id if isinstance(target, ast.Name) else None
            )
            if target_name is None or "port" not in target_name.lower():
                continue
            it = node.iter
            if not (
                isinstance(it, ast.Call)
                and terminal_name(it.func) == "range"
            ):
                continue
            bounds_ok = all(
                terminal_name(arg) == "num_ports" for arg in it.args
            ) and it.args
            if not bounds_ok:
                yield ctx.finding(
                    "RPL021",
                    node,
                    f"'for {target_name} in range(...)' over a bound other "
                    "than num_ports: a partial numeric port scan is not "
                    "relabelling-equivariant",
                )


@module_checker
def check_equivariance(ctx: ModuleContext) -> Iterator[Finding]:
    """Run the equivariance family (RPL020–RPL021) over one module."""
    yield from _id_order_findings(ctx)
    yield from _port_scan_findings(ctx)
