"""A protocol whose module imports entropy sources (``uses_rng``).

Module-level ``random``/``secrets``/``uuid`` escape the seeded
simulation RNG, so the flow analysis marks the protocol ``uses_rng`` and
the deterministic pipelines refuse it: matrix rows at load time
(:func:`repro.matrix.spec._ensure_deterministic_capability`) and the
sharded kernel at construction time.
"""

import random

from dataclasses import dataclass

from repro.core.messages import Message
from repro.core.node import Node, NodeContext
from repro.core.protocol import ElectionProtocol


@dataclass(frozen=True, slots=True)
class Coin(Message):
    face: int


class RngNode(Node):
    def on_wake(self, spontaneous: bool) -> None:
        self.ctx.send(0, Coin(random.getrandbits(1)))

    def on_message(self, port: int, message: Message) -> None:
        pass


class RngProtocol(ElectionProtocol):
    name = "flow-rng-fixture"

    def create_node(self, ctx: NodeContext) -> RngNode:
        return RngNode(ctx)
