"""The paper's primary contribution: Spike-style code layout optimizations."""

from repro.layout.cfa import CfaReport, cfa_layout
from repro.layout.coloring import ColoringReport, color_layout
from repro.layout.combos import Combo
from repro.layout.joint import JointPlacementReport, choose_kernel_offset
from repro.layout.temporal import build_trg, temporal_order
from repro.layout.chaining import ChainingResult, chain_blocks
from repro.layout.hotcold import split_hot_cold
from repro.layout.ordering import (
    DEFAULT_MAX_DISPLACEMENT,
    OrderingResult,
    order_units,
)
from repro.layout.spike import ALL_COMBOS, PAPER_COMBOS, SpikeOptimizer
from repro.layout.splitting import split_chains, split_source_order

__all__ = [
    "ALL_COMBOS",
    "CfaReport",
    "Combo",
    "ColoringReport",
    "JointPlacementReport",
    "ChainingResult",
    "DEFAULT_MAX_DISPLACEMENT",
    "OrderingResult",
    "PAPER_COMBOS",
    "SpikeOptimizer",
    "cfa_layout",
    "build_trg",
    "choose_kernel_offset",
    "color_layout",
    "temporal_order",
    "chain_blocks",
    "order_units",
    "split_chains",
    "split_hot_cold",
    "split_source_order",
]
