"""The unified memory-hierarchy description and simulation result.

:class:`MemoryHierarchy` composes the caches one simulation run models
-- the L1 instruction cache (always present), and optionally a shared
unified L2, an L1 data cache, and an instruction TLB.
:func:`repro.sim.simulate` takes one hierarchy plus the fetch-span
streams and returns a :class:`SimResult` with every level's outcome, so
``timing.cpu``, ``harness.figures`` and ``online.experiment`` all speak
one vocabulary instead of composing ``simulate_*`` calls by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache import CacheGeometry
from repro.errors import SimulationError
from repro.sim.dcache import DCacheResult
from repro.sim.icache import ICacheResult
from repro.sim.l2 import L2Result
from repro.sim.tlb import TlbResult


@dataclass(frozen=True)
class MemoryHierarchy:
    """What to simulate: the composed cache levels of one machine.

    Attributes:
        l1i: The L1 instruction cache geometry (required).
        l2: Shared unified L2 geometry; ``None`` skips the L2.  When
            set, the L1I runs as a tag array producing a refill stream
            (no locality detail) and the L2 sees per-CPU instruction
            refills interleaved with data refills by trace position.
        dcache: L1 data cache geometry; ``None`` skips the data side.
            Only simulated when the caller also passes data streams.
        itlb_entries: Instruction-TLB entry count; ``0`` skips the TLB.
        detail: Collect the paper's detailed locality metrics (word
            usage, reuse, lifetimes) on the L1I.  Only valid without an
            L2 (the refill-stream L1I keeps no locality state).
        physical_l2: Run L2 addresses through first-touch page-frame
            allocation (physically indexed cache) before indexing.
    """

    l1i: CacheGeometry
    l2: Optional[CacheGeometry] = None
    dcache: Optional[CacheGeometry] = None
    itlb_entries: int = 0
    detail: bool = False
    physical_l2: bool = True

    def __post_init__(self) -> None:
        if self.itlb_entries < 0:
            raise SimulationError(
                f"itlb_entries must be >= 0, got {self.itlb_entries}"
            )
        if self.detail and self.l2 is not None:
            raise SimulationError(
                "MemoryHierarchy(detail=True) is only valid without an "
                "L2: the refill-producing L1I keeps no locality detail"
            )

    @classmethod
    def l1i_only(
        cls, geometry: CacheGeometry, detail: bool = False
    ) -> "MemoryHierarchy":
        """A hierarchy of just one L1 instruction cache."""
        return cls(l1i=geometry, detail=detail)

    @classmethod
    def from_platform(cls, platform) -> "MemoryHierarchy":
        """The full hierarchy of a :class:`repro.timing.Platform`."""
        return cls(
            l1i=platform.icache,
            l2=platform.l2,
            dcache=platform.dcache,
            itlb_entries=platform.itlb_entries,
        )

    def __str__(self) -> str:
        parts = [f"L1I {self.l1i}"]
        if self.dcache is not None:
            parts.append(f"L1D {self.dcache}")
        if self.l2 is not None:
            parts.append(f"L2 {self.l2}")
        if self.itlb_entries:
            parts.append(f"iTLB {self.itlb_entries}e")
        return " + ".join(parts)


@dataclass
class SimResult:
    """Everything one :func:`repro.sim.simulate` run measured.

    Levels absent from the hierarchy (or starved of input, like a
    dcache with no data streams) are ``None``/zero.
    """

    hierarchy: MemoryHierarchy
    #: Total instructions fetched across all streams.
    instructions: int
    #: Full L1I result (locality, interference) -- only on the LRU
    #: path, i.e. when the hierarchy has no L2.
    icache: Optional[ICacheResult] = None
    #: L1I miss count (populated on both the LRU and the refill path).
    l1i_misses: int = 0
    itlb: Optional[TlbResult] = None
    l2: Optional[L2Result] = None
    #: Merged L1D outcome across all data streams.
    dcache: Optional[DCacheResult] = None

    @property
    def misses(self) -> int:
        """L1I misses -- the paper's headline metric, for terse call
        sites that only care about the instruction cache."""
        return self.l1i_misses

    @property
    def mpki(self) -> float:
        """L1I misses per 1000 instructions fetched."""
        return self.l1i_misses / max(1, self.instructions) * 1000.0
