"""Fine-grain procedure splitting (Section 2, Figure 1b).

After chaining, each procedure's block order is cut into *code
segments*: "a code segment is ended by an unconditional branch or
return".  Each segment becomes a separate placeable unit (a new
"procedure" in Spike's model), giving the follow-on ordering pass
freedom to separate hot segments from cold ones.

Segments never span chain boundaries: a chain break is exactly the
point where the address assigner must insert an unconditional branch,
so the boundary block is segment-ending by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.ir import SEGMENT_ENDING, Binary, Layout
from repro.layout.chaining import ChainingResult


def split_chains(
    binary: Binary,
    chainings: Sequence[ChainingResult],
    alignment: int = 4,
    name: str = "chain+split",
) -> Layout:
    """Split chained procedures into segment units.

    ``chainings`` holds one chaining per procedure, in link order.  The
    segments follow chain order; each procedure's are numbered from 0.
    """
    chains = [chain for chaining in chainings for chain in chaining.chains]
    lengths = np.array([len(chain) for chain in chains], dtype=np.int64)
    ids = np.fromiter(
        (bid for chain in chains for bid in chain), dtype=np.int64, count=int(lengths.sum())
    )
    layout = _segments(binary, ids, np.cumsum(lengths) - lengths, alignment, name)
    obs.counter("layout.split.procedures").inc(len(chainings))
    obs.counter("layout.split.segments").inc(layout.num_units)
    return layout


def split_source_order(binary: Binary, alignment: int = 4, name: str = "split") -> Layout:
    """Split every procedure's *source-order* blocks into segments.

    Used to study splitting without chaining.
    """
    return _segments(binary, np.arange(binary.num_blocks), (), alignment, name)


def _segments(binary: Binary, ids: np.ndarray, heads, alignment: int, name: str) -> Layout:
    """Cut ``ids`` (each procedure's blocks together, link order) after
    every segment-ending block, at every position in ``heads`` and
    between procedures."""
    table = binary.table
    proc = table.proc[ids]
    cut = np.ones(len(ids), dtype=bool)
    cut[1:] = table.is_term(*SEGMENT_ENDING)[ids[:-1]] | (proc[1:] != proc[:-1])
    cut[np.asarray(heads, dtype=np.int64)] = True
    starts = np.flatnonzero(cut)
    unit_proc = proc[starts]
    first = np.flatnonzero(np.diff(unit_proc, prepend=-1))
    kind = np.arange(len(starts)) - np.repeat(first, np.diff(first, append=len(starts)))
    return Layout(
        procs=table.names, ids=ids, starts=starts, proc=unit_proc, kind=kind,
        alignment=alignment, name=name,
    )
