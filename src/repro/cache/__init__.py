"""Memory-system simulation engines: I-cache, iTLB, L1D, shared unified L2.

The engines here are the per-level reference implementations; callers
compose them through the :mod:`repro.sim` facade.
"""

from repro.cache.dcache import DCacheResult, dcache_result
from repro.cache.icache import (
    CacheGeometry,
    ICacheResult,
    ICacheSim,
    collapse_consecutive,
    direct_mapped_misses,
    expand_line_runs,
    lru_result,
)
from repro.cache.l2 import L2Result, l2_result, simulate_l1i_misses
from repro.cache.stats import APP, KERNEL, InterferenceMatrix, LocalityStats
from repro.cache.streambuf import StreamBufferResult, simulate_stream_buffers
from repro.cache.victim import VictimCacheResult, simulate_victim_cache
from repro.cache.tlb import PAGE_BYTES, TlbResult, itlb_result

__all__ = [
    "APP",
    "CacheGeometry",
    "DCacheResult",
    "ICacheResult",
    "ICacheSim",
    "InterferenceMatrix",
    "KERNEL",
    "L2Result",
    "LocalityStats",
    "PAGE_BYTES",
    "TlbResult",
    "collapse_consecutive",
    "dcache_result",
    "direct_mapped_misses",
    "expand_line_runs",
    "itlb_result",
    "l2_result",
    "lru_result",
    "simulate_l1i_misses",
    "simulate_stream_buffers",
    "StreamBufferResult",
    "VictimCacheResult",
    "simulate_victim_cache",
]
