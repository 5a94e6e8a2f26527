"""The executable computation graph.

A compiled query is a DAG of plan nodes.  Leaf nodes wrap stream sources;
interior nodes wrap temporal operators.  Every node owns exactly one output
:class:`~repro.core.fwindow.FWindow`, allocated once by the static memory
planner, plus the operator's constant-size carries (its
:meth:`~repro.core.operators.base.Operator.carry_spec`), which the node
allocates, ages over skipped windows and copies for checkpoints.

Execution is pull-based: asking the sink node to ``fill(sync_time)``
recursively positions and fills the upstream FWindows it needs (using each
operator's event-lineage map to translate output sync times into input sync
times) and then runs the operator's vectorised kernel.  Because a node
remembers the sync time it last produced, fan-out created by ``Multicast``
never recomputes a window: the second consumer finds the window already
filled.
"""

from __future__ import annotations

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.operators.base import Carry, Operator
from repro.core.sources import StreamSource
from repro.errors import CompilationError, ExecutionError


class PlanNode:
    """Base class for nodes of the executable computation graph."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: list[PlanNode] = []
        self.descriptor: StreamDescriptor | None = None
        self.dimension: int | None = None
        self.fwindow: FWindow | None = None
        self._filled_at: int | None = None
        #: Number of windows this node actually computed during the last run;
        #: used by the targeted-query-processing ablation.
        self.windows_computed: int = 0
        #: The carries as allocated (:meth:`allocate_carries`), and the
        #: carries themselves by name.
        self.carry_spec: tuple[Carry, ...] = ()
        self.carries: dict[str, np.ndarray] = {}
        #: The sync time the carries are valid for: where the window after
        #: the last one computed starts (None before the first).
        self.stamp: int | None = None

    def fill(self, sync_time: int) -> None:
        """Ensure the node's FWindow holds the window starting at *sync_time*."""
        raise NotImplementedError

    def declared_carries(self) -> tuple[Carry, ...]:
        """The node's carry spec (an operator's, on the node's inputs and dimension)."""
        return ()

    def allocate_carries(self, spec: tuple[Carry, ...] | None = None) -> int:
        """Allocate the carries at their fill values (*spec*: a template
        node's, else :meth:`declared_carries`); returns their bytes."""
        self.carry_spec = self.declared_carries() if spec is None else spec
        self.carries = {}
        for carry in self.carry_spec:
            array = self.carries[carry.name] = np.empty(carry.slots, carry.dtype)
            array[...] = carry.fill
        return sum(array.nbytes for array in self.carries.values())

    def resume(self, sync_time: int, windows: int = 1) -> None:
        """The one aging rule, for both backends: when input resumes at
        *sync_time*, ``g`` ticks after the stamp (targeted execution skipped
        windows), shift ``g // period`` slots out of every FIFO carry, as the
        skipped, absent input would have; then stamp the carries past the
        *windows* windows the caller computes next."""
        stamp = self.stamp
        if stamp is not None and sync_time > stamp:
            for carry in self.carry_spec:
                if carry.period is not None:
                    array = self.carries[carry.name]
                    kept = max(array.size - (sync_time - stamp) // carry.period, 0)
                    array[:kept] = array[array.size - kept :]
                    array[kept:] = carry.fill
        self.stamp = sync_time + windows * self.dimension

    def reset(self) -> None:
        """Clear runtime state (carries refilled in place) to run the plan again."""
        self._filled_at = None
        self.windows_computed = 0
        if self.fwindow is not None:
            self.fwindow.reset()
        for carry in self.carry_spec:
            self.carries[carry.name][...] = carry.fill
        self.stamp = None

    def iter_nodes(self):
        """Yield every node reachable from this one (post-order, deduplicated)."""
        seen: set[int] = set()

        def walk(node: "PlanNode"):
            if id(node) in seen:
                return
            seen.add(id(node))
            for child in node.inputs:
                yield from walk(child)
            yield node

        yield from walk(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dim = f"[{self.dimension}]" if self.dimension else ""
        return f"<{type(self).__name__} {self.name} {self.descriptor}{dim}>"


class SourceNode(PlanNode):
    """Leaf node streaming data out of a :class:`StreamSource`."""

    def __init__(self, name: str, source: StreamSource) -> None:
        super().__init__(name)
        self.source = source
        self.descriptor = source.descriptor

    def fill(self, sync_time: int) -> None:
        if self.fwindow is None:
            raise ExecutionError(f"source node {self.name} has no FWindow; was the plan compiled?")
        if self._filled_at == sync_time:
            return
        window = self.fwindow
        window.slide_to(sync_time)
        times, values, durations = self.source.read(sync_time, sync_time + window.dimension)
        if times.size:
            window.set_events(times, values, durations)
        self._filled_at = sync_time
        self.windows_computed += 1


class OperatorNode(PlanNode):
    """Interior node applying a temporal operator to its input nodes."""

    def __init__(self, name: str, operator: Operator, inputs: list[PlanNode]) -> None:
        super().__init__(name)
        self.operator = operator
        self.inputs = inputs
        if len(inputs) != operator.arity:
            raise CompilationError(
                f"operator {operator.name} expects {operator.arity} input(s), "
                f"got {len(inputs)}"
            )
        self.descriptor = operator.output_descriptor([node.descriptor for node in inputs])

    def declared_carries(self) -> tuple[Carry, ...]:
        return self.operator.carry_spec([n.descriptor for n in self.inputs], self.dimension)

    def fill(self, sync_time: int) -> None:
        if self.fwindow is None:
            raise ExecutionError(f"node {self.name} has no FWindow; was the plan compiled?")
        if self._filled_at == sync_time:
            return
        for index, upstream in enumerate(self.inputs):
            input_sync = self.operator.input_sync_time(sync_time, index, upstream.descriptor)
            upstream.fill(input_sync)
        self.fwindow.slide_to(sync_time)
        self.resume(sync_time)
        self.operator.compute(self.fwindow, [node.fwindow for node in self.inputs], self.carries)
        self._filled_at = sync_time
        self.windows_computed += 1


def copy_carries(node: OperatorNode) -> dict:
    """A checkpoint's copy of *node*'s carries, with its operator's name and stamp."""
    return {
        "operator": node.operator.name,
        "carries": {name: array.copy() for name, array in node.carries.items()},
        "stamp": node.stamp,
    }


def load_carries(node: OperatorNode, saved: dict) -> None:
    """Write a :func:`copy_carries` copy of a node like *node* into its arrays."""
    carries = saved["carries"]
    if saved["operator"] != node.operator.name or {
        name: array.shape for name, array in carries.items()
    } != {name: array.shape for name, array in node.carries.items()}:
        raise ExecutionError(
            f"checkpoint carries of operator {saved['operator']!r} do not fit "
            f"node {node.name} of operator {node.operator.name!r}; was the query "
            f"changed since the checkpoint?"
        )
    for name, array in carries.items():
        node.carries[name][...] = array
    node.stamp = saved["stamp"]


def topological_order(sink: PlanNode) -> list[PlanNode]:
    """All nodes reachable from *sink*, inputs before consumers."""
    return list(sink.iter_nodes())


def source_nodes(sink: PlanNode) -> list[SourceNode]:
    """The source (leaf) nodes of the graph rooted at *sink*."""
    return [node for node in sink.iter_nodes() if isinstance(node, SourceNode)]


def operator_nodes(sink: PlanNode) -> list[OperatorNode]:
    """The operator (interior) nodes of the graph rooted at *sink*."""
    return [node for node in sink.iter_nodes() if isinstance(node, OperatorNode)]


def describe_plan(sink: PlanNode) -> str:
    """Human-readable dump of the plan, one line per node.

    The format mirrors the paper's symbolic notation
    ``(offset, period)[dimension]`` from Figure 6.
    """
    lines = []
    for node in topological_order(sink):
        inputs = ", ".join(inp.name for inp in node.inputs) or "-"
        dim = node.dimension if node.dimension is not None else "?"
        lines.append(f"{node.name:<24} {node.descriptor}[{dim}]  <- {inputs}")
    return "\n".join(lines)


def total_preallocated_bytes(sink: PlanNode) -> int:
    """Total bytes of FWindow buffers and carries pre-allocated for the plan."""
    return sum(
        node.fwindow.memory_bytes() + sum(array.nbytes for array in node.carries.values())
        for node in topological_order(sink)
        if node.fwindow is not None
    )


def plan_fragmentation(sink: PlanNode) -> float:
    """Worst-case FWindow fragmentation currently observed across the plan."""
    fragmentations = [
        node.fwindow.fragmentation()
        for node in topological_order(sink)
        if node.fwindow is not None
    ]
    return float(np.max(fragmentations)) if fragmentations else 0.0
