"""Static memory allocation (Section 5.2 of the paper).

Once locality tracing has fixed every FWindow dimension, the bounded-memory
property of periodic streams (at most ``dimension / period`` events per
window) makes the memory footprint of the whole plan statically computable.
The planner allocates every FWindow buffer and every operator's declared
carries exactly once, before execution starts; the runtime then reuses
them for every window it slides through, eliminating allocation and
deallocation overhead on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fwindow import FWindow
from repro.core.graph import PlanNode, topological_order
from repro.errors import MemoryPlanError


@dataclass(frozen=True)
class MemoryPlan:
    """Summary of the buffers pre-allocated for a compiled plan."""

    #: Number of FWindows allocated (one per plan node).
    fwindow_count: int
    #: Total bytes across all FWindow buffers and operator carries.
    total_bytes: int
    #: Largest single FWindow, in bytes.
    largest_fwindow_bytes: int
    #: Per-node breakdown: node name -> bytes (FWindow and carries).
    per_node_bytes: dict[str, int]

    def __str__(self) -> str:
        return (
            f"MemoryPlan({self.fwindow_count} FWindows, "
            f"{self.total_bytes / 1024:.1f} KiB total)"
        )


def estimate_footprint(sink: PlanNode) -> int:
    """Bytes the plan's intermediate-result buffers and carries take when
    allocated.

    Uses the bounded-memory property only — it can be called before the
    buffers are allocated, as long as locality tracing has run.  A window
    whose events' durations vary adds a duration column (8 bytes a slot)
    on first use.
    """
    total = 0
    for node in topological_order(sink):
        if node.dimension is None:
            raise MemoryPlanError(
                f"node {node.name} has no dimension; run locality tracing first"
            )
        capacity = node.dimension // node.descriptor.period
        # values (float64) + bitvector (bool); a window holds one duration
        # until its events' durations vary (FWindow.vary_durations).
        total += capacity * (8 + 1)
        total += sum(c.slots * np.dtype(c.dtype).itemsize for c in node.declared_carries())
    return total


def allocate(sink: PlanNode, tracer=None) -> MemoryPlan:
    """Allocate every FWindow and operator carry for the plan rooted at *sink*."""
    per_node: dict[str, int] = {}
    for node in topological_order(sink):
        if node.dimension is None:
            raise MemoryPlanError(
                f"node {node.name} has no dimension; run locality tracing first"
            )
        node.fwindow = FWindow(
            node.descriptor,
            node.dimension,
            name=node.name,
            tracer=tracer,
        )
        per_node[node.name] = node.fwindow.memory_bytes() + node.allocate_carries()
    total = sum(per_node.values())
    largest = max(per_node.values()) if per_node else 0
    return MemoryPlan(
        fwindow_count=len(per_node),
        total_bytes=total,
        largest_fwindow_bytes=largest,
        per_node_bytes=per_node,
    )
