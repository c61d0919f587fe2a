"""Cache geometry, the one cache shape every layer names.

The engines that simulate a cache live in :mod:`repro.sim`; this
module only describes one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.ir import INSTRUCTION_BYTES


@dataclass(frozen=True)
class CacheGeometry:
    """Size / line size / associativity of one cache."""

    size_bytes: int
    line_bytes: int
    assoc: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise SimulationError(
                f"cache {self.size_bytes}B cannot be divided into "
                f"{self.assoc}-way sets of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        """Sets in the cache: size / (line size x associativity)."""
        return self.size_bytes // (self.line_bytes * self.assoc)

    @property
    def words_per_line(self) -> int:
        """Instruction words held by one line."""
        return self.line_bytes // INSTRUCTION_BYTES

    def __str__(self) -> str:
        way = "direct-mapped" if self.assoc == 1 else f"{self.assoc}-way"
        return f"{self.size_bytes // 1024}KB/{self.line_bytes}B/{way}"
