"""Operator fusion: collapse element-wise chains into single kernel nodes.

Element-wise operators (Select, Where, Shift, AlterDuration) translate
FWindow slots one-to-one, so a chain of them is a single vectorised sweep
executed as several plan nodes.  ``fuse_elementwise`` rewrites the plan
graph, replacing every maximal single-consumer chain of two or more such
nodes with one node carrying a
:class:`~repro.core.operators.fused.FusedElementwise` operator.

The pass runs after locality tracing, so the fused node inherits the
chain head's dimension verbatim; the fused
operator recomputes the composed descriptor and checks it against the
chain's (defence in depth).  Nodes with more than one consumer — multicast
fan-out points — are never absorbed into a chain, so a shared stream is
still computed exactly once per window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.graph import OperatorNode, PlanNode, topological_order
from repro.core.operators.fused import FUSABLE_OPERATORS, FusedElementwise
from repro.errors import CompilationError


@dataclass
class FusionReport:
    """Outcome of one fusion rewrite."""

    #: The (possibly replaced) sink of the rewritten plan.
    sink: PlanNode
    #: Number of fused kernel nodes created.
    chains_fused: int
    #: Number of original plan nodes absorbed into fused kernels.
    nodes_eliminated: int


def _parents(sink: PlanNode) -> dict[int, list[PlanNode]]:
    parents: dict[int, list[PlanNode]] = {}
    for node in topological_order(sink):
        for child in node.inputs:
            parents.setdefault(id(child), []).append(node)
    return parents


def _is_fusable(node: PlanNode) -> bool:
    return (
        isinstance(node, OperatorNode)
        and len(node.inputs) == 1
        and isinstance(node.operator, FUSABLE_OPERATORS)
    )


def fuse_elementwise(sink: PlanNode) -> FusionReport:
    """Rewrite the graph rooted at *sink*, fusing element-wise chains."""
    parents = _parents(sink)

    def absorbable(node: PlanNode) -> bool:
        """Can *node* be an interior (non-head) element of a chain?"""
        return _is_fusable(node) and len(parents.get(id(node), ())) == 1

    chains_fused = 0
    nodes_eliminated = 0
    new_sink = sink
    for node in topological_order(sink):
        if not _is_fusable(node):
            continue
        node_parents = parents.get(id(node), ())
        if len(node_parents) == 1 and _is_fusable(node_parents[0]):
            continue  # interior of some chain; handled from its head
        # *node* is a chain head: walk inward while the input is absorbable.
        chain = [node]
        current = node.inputs[0]
        while absorbable(current):
            chain.append(current)
            current = current.inputs[0]
        if len(chain) < 2:
            continue
        chain.reverse()  # innermost first
        fused_op = FusedElementwise(
            [(link.operator, link.inputs[0].descriptor) for link in chain]
        )
        fused = OperatorNode(
            "fused_" + "+".join(link.name for link in chain), fused_op, [current]
        )
        if fused.descriptor != node.descriptor:  # pragma: no cover - defensive
            raise CompilationError(
                f"fused chain descriptor {fused.descriptor} does not match the "
                f"original head descriptor {node.descriptor}"
            )
        fused.dimension = node.dimension
        chains_fused += 1
        nodes_eliminated += len(chain)
        for parent in node_parents:
            parent.inputs = [fused if inp is node else inp for inp in parent.inputs]
        if node is sink:
            new_sink = fused
    return FusionReport(sink=new_sink, chains_fused=chains_fused, nodes_eliminated=nodes_eliminated)
