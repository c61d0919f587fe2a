"""Alpha-like binary IR: what the Spike-style optimizer sees."""

from repro.ir.binary import Binary, BlockTable
from repro.ir.block import BasicBlock
from repro.ir.callgraph import UnitCallGraph, build_unit_call_graph
from repro.ir.flowgraph import (
    FlowEdge,
    FlowGraph,
    flow_graph_from_block_counts,
    flow_graph_from_edge_counts,
)
from repro.ir.instruction import (
    DATA_BASE,
    INSTRUCTION_BYTES,
    KERNEL_BASE,
    SEGMENT_ENDING,
    Terminator,
)
from repro.ir.layout import (
    AddressMap,
    CodeUnit,
    Layout,
    assign_addresses,
    baseline_layout,
    flatten_units,
    trace_fetch_counts,
    unit_sizes_and_heat,
)
from repro.ir.procedure import Procedure

__all__ = [
    "AddressMap",
    "BasicBlock",
    "Binary",
    "BlockTable",
    "CodeUnit",
    "DATA_BASE",
    "FlowEdge",
    "FlowGraph",
    "INSTRUCTION_BYTES",
    "KERNEL_BASE",
    "Layout",
    "Procedure",
    "SEGMENT_ENDING",
    "Terminator",
    "UnitCallGraph",
    "assign_addresses",
    "baseline_layout",
    "build_unit_call_graph",
    "flatten_units",
    "flow_graph_from_block_counts",
    "flow_graph_from_edge_counts",
    "trace_fetch_counts",
    "unit_sizes_and_heat",
]
