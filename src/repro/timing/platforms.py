"""Alpha platform parameter sets used in the paper's experiments.

Latencies are in CPU cycles at each platform's clock; they follow the
published characteristics of the 21164 (AlphaServer 4100, 300 MHz),
the 21264 (AlphaServer DS20, 600 MHz), and the paper's SimOS
approximation of a 1 GHz 21364-class system (12 ns L2, 80 ns memory).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import CacheGeometry


@dataclass(frozen=True)
class Platform:
    """One machine model for the non-idle-cycle estimator."""

    name: str
    icache: CacheGeometry
    itlb_entries: int
    l2: CacheGeometry
    #: Base CPI of the pipeline for non-memory work.
    cpi_base: float
    #: L1 instruction miss penalty when the L2 hits (cycles).
    l1_miss_penalty: float
    #: Additional penalty when the L2 also misses (cycles).
    l2_miss_penalty: float
    #: iTLB refill penalty (cycles).
    itlb_penalty: float
    #: L1 data cache for the data-side stream.
    dcache: CacheGeometry

    def __str__(self) -> str:
        return self.name


#: AlphaServer 4100: 300 MHz 21164, 8KB direct-mapped I-cache, 48-entry
#: iTLB, 2MB direct-mapped board cache.
ALPHA_21164 = Platform(
    name="21164 (8KB, 1-way)",
    icache=CacheGeometry(8 * 1024, 32, 1),
    itlb_entries=48,
    l2=CacheGeometry(2 * 1024 * 1024, 64, 1),
    cpi_base=1.4,
    l1_miss_penalty=10.0,
    l2_miss_penalty=60.0,
    itlb_penalty=30.0,
    dcache=CacheGeometry(8 * 1024, 32, 1),
)

#: AlphaServer DS20: 600 MHz 21264, 64KB 2-way I-cache.
ALPHA_21264 = Platform(
    name="21264 (64KB, 2-way)",
    icache=CacheGeometry(64 * 1024, 64, 2),
    itlb_entries=128,
    l2=CacheGeometry(4 * 1024 * 1024, 64, 1),
    cpi_base=1.1,
    l1_miss_penalty=14.0,
    l2_miss_penalty=90.0,
    itlb_penalty=40.0,
    dcache=CacheGeometry(64 * 1024, 64, 2),
)

#: The paper's SimOS configuration approximating a 1 GHz 21364-class
#: chip: 64KB 2-way L1s, 1.5MB 6-way on-chip L2, 12ns L2 / 80ns memory.
ALPHA_21364_SIM = Platform(
    name="21364-sim (64KB, 2-way)",
    icache=CacheGeometry(64 * 1024, 64, 2),
    itlb_entries=64,
    l2=CacheGeometry(1536 * 1024, 64, 6),
    cpi_base=1.0,
    l1_miss_penalty=12.0,
    l2_miss_penalty=68.0,
    itlb_penalty=50.0,
    dcache=CacheGeometry(64 * 1024, 64, 2),
)

PLATFORMS = (ALPHA_21164, ALPHA_21264, ALPHA_21364_SIM)
