"""Unified simulation engine: one entry point over the memory hierarchy.

:func:`simulate` runs per-CPU fetch-span streams (and optionally data
streams) through a composed :class:`MemoryHierarchy` -- L1I, L2, iTLB,
L1D -- and returns one :class:`SimResult`.  :func:`simulate_grid` is
the batched sweep engine behind Figures 4/5: one vectorized pass over
shared trace chunks evaluates every direct-mapped geometry in the grid
(see :mod:`repro.sim.batch` for the algorithm and
``docs/SIMULATION.md`` for the design).

The per-level engines (``icache``, ``l2``, ``tlb``, ``dcache``,
``streambuf``, ``victim``) live in this package beside the facade, and
``__all__`` is the one public engine surface.  The classic engines
double as the differential oracle for the batched sweep.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.sim.batch import (
    DEFAULT_CHUNK_INSTRUCTIONS,
    ENGINES,
    iter_chunks,
    simulate_grid,
)
from repro.sim.dcache import DCacheResult, dcache_result
from repro.sim.hierarchy import MemoryHierarchy, SimResult
from repro.sim.icache import (
    ICacheResult,
    collapse_consecutive,
    direct_mapped_misses,
    expand_line_runs,
    lru_pass,
    lru_result,
)
from repro.sim.l2 import L2Result, l2_result, simulate_l1i_misses
from repro.sim.stats import APP, KERNEL, InterferenceMatrix, LocalityStats
from repro.sim.streambuf import StreamBufferResult, simulate_stream_buffers
from repro.sim.tlb import PAGE_BYTES, TlbResult, itlb_result
from repro.sim.victim import VictimCacheResult, simulate_victim_cache

__all__ = [
    "APP",
    "DCacheResult",
    "DEFAULT_CHUNK_INSTRUCTIONS",
    "ENGINES",
    "ICacheResult",
    "InterferenceMatrix",
    "KERNEL",
    "L2Result",
    "LocalityStats",
    "MemoryHierarchy",
    "PAGE_BYTES",
    "SimResult",
    "StreamBufferResult",
    "TlbResult",
    "VictimCacheResult",
    "collapse_consecutive",
    "dcache_result",
    "direct_mapped_misses",
    "expand_line_runs",
    "iter_chunks",
    "itlb_result",
    "l2_result",
    "lru_pass",
    "lru_result",
    "simulate",
    "simulate_grid",
    "simulate_l1i_misses",
    "simulate_stream_buffers",
    "simulate_victim_cache",
]


def _merge_dcache(results: List[DCacheResult]) -> DCacheResult:
    """Fold per-CPU L1D outcomes into one result (counts summed, miss
    streams concatenated in CPU order)."""
    merged = DCacheResult(
        geometry=results[0].geometry,
        misses=sum(r.misses for r in results),
        accesses=sum(r.accesses for r in results),
        miss_addresses=np.concatenate([r.miss_addresses for r in results]),
        miss_positions=np.concatenate([r.miss_positions for r in results]),
    )
    return merged


def simulate(
    streams: Iterable[Tuple[np.ndarray, np.ndarray]],
    hierarchy: MemoryHierarchy,
    *,
    data_streams: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None,
) -> SimResult:
    """Run streams through one memory hierarchy; the single entry point.

    Args:
        streams: Per-CPU ``(starts, counts)`` fetch spans (a plain list
            or a :class:`~repro.harness.experiment.StreamSet`).
        hierarchy: Which cache levels to model.
        data_streams: Optional per-CPU ``(addresses, positions)`` data
            accesses; simulated only when ``hierarchy.dcache`` is set.

    Without an L2 the L1I runs :func:`lru_result` and ``result.icache``
    carries interference/locality detail.  With an L2 the L1I yields
    only its refills, which (merged with L1D refills, instruction
    refills first per CPU) feed the shared L2.
    """
    stream_list = list(streams)
    instructions = sum(int(counts.sum()) for _, counts in stream_list)
    result = SimResult(hierarchy=hierarchy, instructions=instructions)
    with obs.span("sim.simulate", hierarchy=str(hierarchy)):
        dcache_results: List[DCacheResult] = []
        if hierarchy.l2 is None:
            icache = lru_result(stream_list, hierarchy.l1i, detail=hierarchy.detail)
            result.icache = icache
            result.l1i_misses = icache.misses
            if data_streams and hierarchy.dcache is not None:
                for addresses, positions in data_streams:
                    dcache_results.append(
                        dcache_result(addresses, hierarchy.dcache, positions)
                    )
        else:
            refills: List[Tuple[np.ndarray, np.ndarray]] = []
            for starts, counts in stream_list:
                addresses, positions = simulate_l1i_misses(
                    starts, counts, hierarchy.l1i
                )
                result.l1i_misses += len(addresses)
                refills.append((addresses, positions))
            if data_streams and hierarchy.dcache is not None:
                for cpu, (addresses, positions) in enumerate(data_streams):
                    dres = dcache_result(addresses, hierarchy.dcache, positions)
                    dcache_results.append(dres)
                    refills[cpu] = (
                        np.concatenate([refills[cpu][0], dres.miss_addresses]),
                        np.concatenate([refills[cpu][1], dres.miss_positions]),
                    )
            result.l2 = l2_result(
                refills, hierarchy.l2, physical=hierarchy.physical_l2
            )
        if dcache_results:
            result.dcache = _merge_dcache(dcache_results)
        if hierarchy.itlb_entries:
            result.itlb = itlb_result(stream_list, entries=hierarchy.itlb_entries)
    return result
