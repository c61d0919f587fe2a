"""Pettis--Hansen hot/cold procedure splitting.

This is the splitting algorithm "currently available in the Spike
distribution" that the paper compares its fine-grain splitting against:
each procedure is split into exactly two parts -- a *hot* part holding
the frequently executed blocks and a *cold* part holding the rest --
based on relative execution frequency.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ir import COLD, HOT, Binary, Layout


def split_hot_cold(
    binary: Binary,
    block_counts,
    ids: Optional[np.ndarray] = None,
    threshold: float = 0.0,
    alignment: int = 4,
    name: str = "hotcold",
) -> Layout:
    """Split every procedure into a hot unit and (when any block is
    cold) a cold unit, procedures in link order.

    ``ids`` is the block order each part keeps, each procedure's blocks
    together in link order (source order by default; pass a chained
    order to combine with chaining).  A block is *hot* when its count
    exceeds ``threshold`` times its procedure's entry count; the
    default 0.0 marks every executed block hot.
    """
    table = binary.table
    ids = np.arange(binary.num_blocks) if ids is None else np.asarray(ids, dtype=np.int64)
    counts = np.asarray(block_counts)
    proc = table.proc[ids]
    entry = ids == table.entry[proc]
    hot = counts[ids].astype(np.float64) > threshold * counts[table.entry[proc]].astype(np.float64)
    # The entry block always lives in the hot part -- first, when it is
    # not hot itself -- so callers land on it even for never-profiled
    # procedures.
    cold = ~(hot | entry)
    order = np.lexsort((np.arange(len(ids)), hot | ~entry, cold, proc))
    proc, cold = proc[order], cold[order]
    cut = np.ones(len(ids), dtype=bool)
    cut[1:] = (proc[1:] != proc[:-1]) | (cold[1:] != cold[:-1])
    starts = np.flatnonzero(cut)
    return Layout(
        procs=table.names, ids=ids[order], starts=starts, proc=proc[starts],
        kind=np.where(cold[starts], COLD, HOT), alignment=alignment, name=name,
    )
