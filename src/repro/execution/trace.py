"""Trace containers and layout-aware address expansion.

A block trace is layout-invariant (the executed block sequence never
changes); a :class:`CombinedAddressMap` maps it to instruction
addresses under a particular (application layout, kernel layout) pair.
The expansion to per-transition fetch spans is fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.ir import INSTRUCTION_BYTES, KERNEL_BASE, AddressMap
from repro.ir.layout import trace_fetch_counts

#: Process id used for kernel-initiated work with no process context.
KERNEL_PID = -1


@dataclass
class CpuTrace:
    """One CPU's instruction stream at block granularity."""

    blocks: np.ndarray  # int64, combined block-id space
    pids: np.ndarray    # int16, server process id per entry

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.pids):
            raise SimulationError("blocks/pids length mismatch")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


@dataclass
class SystemTrace:
    """The full multiprocessor run: per-CPU streams plus data accesses."""

    cpus: List[CpuTrace]
    #: Per-CPU data access addresses (for the L2/D-cache studies) and
    #: the block-trace position after which each access occurs.
    data_addresses: List[np.ndarray]
    data_positions: List[np.ndarray]
    kernel_offset: int
    #: Committed transactions represented in the trace.
    transactions: int = 0

    def app_block_stream(self, cpu: int) -> np.ndarray:
        """One CPU's stream filtered to application blocks."""
        trace = self.cpus[cpu]
        return trace.blocks[trace.blocks < self.kernel_offset]

    def per_process_app_streams(self) -> List[np.ndarray]:
        """Application-only block streams, one per process (Pixie input).

        Valid because processes never migrate between CPUs.
        """
        streams = []
        for trace in self.cpus:
            mask = trace.blocks < self.kernel_offset
            blocks = trace.blocks[mask]
            pids = trace.pids[mask]
            for pid in np.unique(pids):
                if pid == KERNEL_PID:
                    continue
                streams.append(blocks[pids == pid])
        return streams

    def total_instructions(self, amap: "CombinedAddressMap") -> int:
        return sum(
            int(amap.fetch_counts(trace.blocks).sum()) for trace in self.cpus
        )


class CombinedAddressMap:
    """Concatenated app+kernel address maps over the combined id space.

    Application blocks keep their app-layout addresses; kernel blocks
    are offset by :data:`repro.ir.KERNEL_BASE`.
    """

    def __init__(
        self,
        app_map: AddressMap,
        kernel_map: AddressMap,
        kernel_base: int = KERNEL_BASE,
    ) -> None:
        self.app_map = app_map
        self.kernel_map = kernel_map
        self.kernel_base = kernel_base
        self.kernel_offset = len(app_map.addr)
        n_kernel = len(kernel_map.addr)
        self.addr = np.concatenate([app_map.addr, kernel_map.addr + kernel_base])
        self.n_fetch = np.concatenate([app_map.n_fetch, kernel_map.n_fetch])
        kernel_taken = kernel_map.taken_succ.copy()
        kernel_taken[kernel_taken >= 0] += self.kernel_offset
        self.taken_succ = np.concatenate([app_map.taken_succ, kernel_taken])
        self.n_fetch_taken = np.concatenate(
            [app_map.n_fetch_taken, kernel_map.n_fetch_taken]
        )
        if app_map.total_bytes > kernel_base:
            raise SimulationError(
                f"application image ({app_map.total_bytes} bytes) overlaps "
                f"the kernel base {kernel_base:#x}"
            )

    def fetch_counts(self, blocks: np.ndarray) -> np.ndarray:
        """Instructions fetched per trace entry (vectorized)."""
        return trace_fetch_counts(
            self.n_fetch, self.taken_succ, self.n_fetch_taken, blocks
        )

    def expand_spans(self, blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(start_address, instruction_count) per trace entry."""
        return self.addr[blocks], self.fetch_counts(blocks)

    def sequential_breaks(self, blocks: np.ndarray) -> np.ndarray:
        """Boolean per transition: True where the stream breaks.

        Transition i covers blocks[i] -> blocks[i+1].
        """
        starts, counts = self.expand_spans(blocks)
        ends = starts + counts * INSTRUCTION_BYTES
        return starts[1:] != ends[:-1]
