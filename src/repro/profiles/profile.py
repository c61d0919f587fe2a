"""Profile data structures: what Spike consumes.

A :class:`Profile` carries basic-block execution counts plus measured
control-flow transition counts for one binary.  Block counts live in a
flat numpy array indexed by global block id; edge counts in a dict
keyed by ``(src_bid, dst_bid)``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ProfileError
from repro.ir import Binary


class Profile:
    """Execution profile of a binary.

    Attributes:
        binary: The profiled binary.
        block_counts: ``int64`` array, execution count per block id.
        edge_counts: Transition counts ``(src, dst) -> count`` for
            intra-procedure control-flow edges and call/return
            transitions observed during profiling.
    """

    def __init__(self, binary: Binary) -> None:
        self.binary = binary
        self.block_counts = np.zeros(binary.num_blocks, dtype=np.int64)
        self.edge_counts: Dict[Tuple[int, int], int] = defaultdict(int)

    @property
    def total_blocks_executed(self) -> int:
        return int(self.block_counts.sum())

    @property
    def total_instructions(self) -> int:
        """Dynamic instruction count implied by the block counts."""
        return int((self.block_counts * self.binary.table.size).sum())

    def count(self, bid: int) -> int:
        return int(self.block_counts[bid])

    def fingerprint(self) -> str:
        """Stable content hash of the profile data.

        Two profiles of the same binary with identical block and edge
        counts hash identically, so cached artifacts derived from a
        profile (layouts, address maps) can be keyed by it.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(self.binary.name.encode())
        digest.update(np.ascontiguousarray(self.block_counts).tobytes())
        for edge in sorted(self.edge_counts):
            count = self.edge_counts[edge]
            if count:
                digest.update(f"{edge[0]},{edge[1]}:{count};".encode())
        return digest.hexdigest()[:20]

    def merge(self, other: "Profile") -> "Profile":
        """Accumulate another profile of the same binary into this one."""
        if other.binary is not self.binary:
            raise ProfileError("cannot merge profiles of different binaries")
        self.block_counts += other.block_counts
        for edge, count in other.edge_counts.items():
            self.edge_counts[edge] += count
        return self

    def hot_blocks(self, threshold: int = 1) -> List[int]:
        """Block ids executed at least ``threshold`` times."""
        return [int(b) for b in np.nonzero(self.block_counts >= threshold)[0]]

    def proc_counts(self) -> Dict[str, int]:
        """Invocation count per procedure (= entry-block count)."""
        return {
            name: int(self.block_counts[self.binary.entry_bid(name)])
            for name in self.binary.proc_order()
        }

    def validate(self) -> None:
        """Sanity-check edge counts against block counts.

        The number of times control leaves a block along measured edges
        can never exceed the block's execution count.
        """
        outgoing: Dict[int, int] = defaultdict(int)
        for (src, _dst), count in self.edge_counts.items():
            outgoing[src] += count
        for src, total in outgoing.items():
            if total > self.block_counts[src]:
                raise ProfileError(
                    f"block {src}: {total} outgoing transitions measured but "
                    f"only {self.block_counts[src]} executions"
                )
