"""The Spike-style optimization pipelines.

Maps each of the paper's optimization combinations (Figure 7 / 15
x-axes) to a code layout:

* ``base``          -- original link order.
* ``porder``        -- Pettis-Hansen ordering of whole procedures.
* ``chain``         -- basic block chaining inside each procedure.
* ``split``         -- fine-grain splitting without chaining (extra
  ablation, not in the paper's figures).
* ``chain+split``   -- chaining then fine-grain splitting.
* ``chain+porder``  -- chaining then P-H ordering of whole procedures.
* ``all``           -- chaining + fine-grain splitting + P-H ordering of
  the segments (the paper's fully optimized binary).
* ``hotcold``       -- chaining + P-H hot/cold splitting + ordering: the
  algorithm in the stock Spike distribution, kept as a comparator.

The optimizer builds layouts and does not check them.  Each consumer
gates a finished layout through :func:`repro.check.check_all`; the
tests hold every pass to its contract (``tests/layout_contracts.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import LayoutError
from repro.ir import (
    Binary,
    FlowGraph,
    Layout,
    baseline_layout,
    build_unit_call_graph,
    flow_graph_from_block_counts,
    flow_graph_from_edge_counts,
    procedure_layout,
)
from repro.layout.cfa import CfaReport, cfa_layout
from repro.layout.chaining import ChainingResult, chain_blocks
from repro.layout.combos import ALL_COMBOS, PAPER_COMBOS, Combo
from repro.layout.hotcold import split_hot_cold
from repro.layout.ordering import DEFAULT_MAX_DISPLACEMENT, order_units
from repro.layout.splitting import split_chains, split_source_order
from repro.profiles import Profile


class SpikeOptimizer:
    """Profile-driven code layout optimizer for one binary."""

    def __init__(
        self,
        binary: Binary,
        profile: Profile,
        proc_alignment: int = 16,
        segment_alignment: int = 4,
        max_displacement: int = DEFAULT_MAX_DISPLACEMENT,
    ) -> None:
        """Whole-procedure layouts keep the compiler's entry alignment
        (``proc_alignment``); split-segment layouts pack code units
        densely (``segment_alignment``) to maximize line utilization,
        as Spike does once segments become independent units."""
        if profile.binary is not binary:
            raise LayoutError("profile does not belong to this binary")
        self.binary = binary
        self.profile = profile
        self.proc_alignment = proc_alignment
        self.segment_alignment = segment_alignment
        self.max_displacement = max_displacement
        self._chain_cache: Optional[Dict[str, ChainingResult]] = None

    # -- building blocks -------------------------------------------------

    def flow_graph(self, proc_name: str) -> FlowGraph:
        """Flow graph weighted by measured edges when available,
        otherwise estimated from block counts (the DCPI/kprofile case)."""
        proc = self.binary.proc(proc_name)
        if self.profile.edge_counts:
            return flow_graph_from_edge_counts(
                proc, self.profile.edge_counts, self.profile.block_counts
            )
        return flow_graph_from_block_counts(proc, self.profile.block_counts)

    def chainings(self) -> Dict[str, ChainingResult]:
        """Chaining result per procedure (cached, filled on demand).

        Entries seeded via :meth:`reuse_chainings` are kept as-is;
        only procedures without a cached result are chained against
        this optimizer's profile.
        """
        if self._chain_cache is None:
            self._chain_cache = {}
        cache = self._chain_cache
        counts = self.profile.block_counts
        for name in self.binary.proc_order():
            if name not in cache:
                cache[name] = chain_blocks(
                    self.binary.proc(name), self.flow_graph(name), counts
                )
        return cache

    def reuse_chainings(
        self, source: "SpikeOptimizer", rebuild: Sequence[str]
    ) -> int:
        """Seed the chaining cache from another optimizer's results.

        Incremental re-layout support: chaining dominates layout
        construction cost, and a profile drift usually perturbs only a
        few procedures' flow graphs.  Every chaining already computed
        by ``source`` is adopted except for the procedures named in
        ``rebuild`` (the drifted ones), which will be re-chained
        against *this* optimizer's profile on first use.  Returns the
        number of procedures whose chains were reused.
        """
        if source.binary is not self.binary:
            raise LayoutError(
                "cannot reuse chainings from an optimizer of a different binary"
            )
        if source._chain_cache is None:
            return 0
        skip = set(rebuild)
        if self._chain_cache is None:
            self._chain_cache = {}
        reused = 0
        for name, result in source._chain_cache.items():
            if name in skip or name in self._chain_cache:
                continue
            self._chain_cache[name] = result
            reused += 1
        return reused

    def _chain_list(self) -> List[ChainingResult]:
        chainings = self.chainings()
        return [chainings[name] for name in self.binary.proc_order()]

    def _chained_ids(self) -> np.ndarray:
        return np.fromiter(
            (bid for c in self._chain_list() for chain in c.chains for bid in chain),
            dtype=np.int64,
            count=self.binary.num_blocks,
        )

    def _split(self) -> Layout:
        return split_chains(self.binary, self._chain_list(), self.segment_alignment)

    def _ordered(self, layout: Layout, name: str) -> Layout:
        graph = build_unit_call_graph(
            self.binary,
            layout,
            self.profile.block_counts,
            edge_counts=self.profile.edge_counts or None,
        )
        result = order_units(
            self.binary,
            layout,
            graph,
            self.profile.block_counts,
            max_displacement=self.max_displacement,
        )
        return layout.permuted(result.order, name=name)

    # -- the pipelines ----------------------------------------------------

    def layout(self, combo: str) -> Layout:
        """Produce the layout for one optimization combination.

        ``combo`` may be a :class:`~repro.layout.Combo` member or one of
        the historical strings; unknown names raise a
        :class:`~repro.errors.LayoutError` listing the valid combos.
        """
        combo = Combo.parse(combo).value
        obs.counter("layout.builds").inc()
        with obs.span("layout.build", combo=combo):
            return self._build(combo)

    def _build(self, combo: str) -> Layout:
        binary = self.binary
        if combo == "base":
            return baseline_layout(binary, alignment=self.proc_alignment)
        if combo == "porder":
            return self._ordered(baseline_layout(binary, self.proc_alignment), combo)
        if combo == "chain":
            return procedure_layout(binary, self._chained_ids(), self.proc_alignment, combo)
        if combo == "split":
            return split_source_order(binary, self.segment_alignment, combo)
        if combo == "chain+split":
            return self._split()
        if combo == "chain+porder":
            chained = procedure_layout(binary, self._chained_ids(), self.proc_alignment)
            return self._ordered(chained, combo)
        if combo == "all":
            return self._ordered(self._split(), combo)
        if combo == "hotcold":
            hotcold = split_hot_cold(
                binary, self.profile.block_counts, self._chained_ids(),
                alignment=self.segment_alignment,
            )
            return self._ordered(hotcold, combo)
        raise LayoutError(
            f"unknown optimization combination {combo!r}; "
            f"valid combos: {', '.join(Combo.names())}"
        )

    def layouts(self, combos: Sequence[str] = PAPER_COMBOS) -> Dict[str, Layout]:
        """Layouts for several combinations at once."""
        return {combo: self.layout(combo) for combo in combos}

    def cfa(
        self, cache_bytes: int, reserved_fraction: float = 0.25
    ) -> Tuple[Layout, CfaReport]:
        """The conflict-free-area layout for a target cache size,
        applied on top of chain+split segments ordered by P-H."""
        ordered = self._ordered(self._split(), "all")
        return cfa_layout(
            self.binary,
            ordered,
            self.profile.block_counts,
            cache_bytes=cache_bytes,
            reserved_fraction=reserved_fraction,
            # 8-byte alignment: dense enough to pack well, but avoids the
            # cross-unit fixups that would shift the carefully placed
            # reserved-set padding.
            alignment=max(8, self.segment_alignment),
        )
