"""A deliberately id-oblivious fixture protocol: zero RPL020/RPL021 sites.

Loaded (not just parsed) by the capability tests: the linter derives
``relabelling_equivariant=True`` for it, the one protocol it does —
proving the derivation reads the code rather than answering False for
everything.  The protocol does nothing.
"""

from __future__ import annotations

from repro.core.messages import Message
from repro.core.node import Node, NodeContext
from repro.core.protocol import ElectionProtocol


class SilentNode(Node):
    def on_wake(self, spontaneous: bool) -> None:
        return None

    def on_message(self, port: int, message: Message) -> None:
        return None


class SilentProtocol(ElectionProtocol):
    name = "FIXTURE-SILENT"

    def create_node(self, ctx: NodeContext) -> SilentNode:
        return SilentNode(ctx)
