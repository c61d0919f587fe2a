"""DCPI-style PC-sampling profiler (plus an LBR-style burst sampler).

DCPI samples the program counter on performance-counter overflow.  Our
equivalent walks a block trace, advancing a virtual instruction clock,
and records a sample every ``period`` instructions.  Block counts are
then *estimated* by scaling sample hits by the sampling period and
dividing by block size (a sample lands in a block with probability
proportional to ``count * size``).

Edge counts cannot be recovered from PC samples; DCPI-based profiles
leave ``edge_counts`` empty and downstream consumers fall back to the
block-count estimator (``flow_graph_from_block_counts``), exactly the
situation the paper describes for kernel profiling with kprofile.

:class:`LbrSampler` extends the estimator the way production online
optimizers (BOLT, Propeller) do: each PC sample also captures the
short burst of control-flow transitions that led up to it, the way a
last-branch-record (LBR) buffer would.  Those bursts yield *estimated*
edge counts, which is what lets a layout rebuilt from samples approach
the quality of a full instrumented profile.

Both profilers keep a persistent sampling phase: the virtual clock
runs continuously across ``add_stream`` calls *and* across epoch
snapshots (:meth:`DcpiProfiler.take_epoch`), so feeding a trace in
arbitrary chunks — including chunks shorter than the distance to the
next sample — yields exactly the same samples as feeding it whole.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

import numpy as np

from repro.ir import Binary
from repro.profiles.profile import Profile


class DcpiProfiler:
    """Sampling profiler over basic-block traces."""

    def __init__(self, binary: Binary, period: int = 4096) -> None:
        if period < 1:
            raise ValueError(f"sampling period must be >= 1, got {period}")
        self.binary = binary
        self.period = period
        self._sizes = binary.table.size
        self._sample_hits = np.zeros(binary.num_blocks, dtype=np.int64)
        # Instructions executed since the last sample.  Carried across
        # add_stream calls and epoch snapshots so short/partial chunks
        # never silently drop pending samples.
        self._phase = 0

    def add_stream(self, block_trace) -> None:
        """Accumulate samples from one process's block trace.

        The trace may arrive in chunks of any length; a chunk shorter
        than the remaining sampling phase contributes no samples but
        still advances the phase, so the next chunk picks up exactly
        where this one left off.
        """
        trace = np.asarray(block_trace, dtype=np.int64)
        if trace.size == 0:
            return
        sizes = self._sizes[trace]
        ends = np.cumsum(sizes)
        total = int(ends[-1])
        # Sample positions in this stream's instruction timeline.
        first = self.period - self._phase
        positions = np.arange(first, total + 1, self.period)
        if positions.size:
            # Which block does each sampled instruction land in?
            idx = np.searchsorted(ends, positions - 1, side="right")
            self._record_samples(trace, idx)
        self._phase = (self._phase + total) % self.period

    def _record_samples(self, trace: np.ndarray, idx: np.ndarray) -> None:
        """Record the samples at trace indices ``idx`` (hook point)."""
        np.add.at(self._sample_hits, trace[idx], 1)

    def profile(self) -> Profile:
        """Estimated profile: counts ~= hits * period / block_size."""
        prof = Profile(self.binary)
        est = self._sample_hits * self.period / np.maximum(self._sizes, 1)
        prof.block_counts = np.rint(est).astype(np.int64)
        return prof

    def take_epoch(self) -> Profile:
        """Snapshot-and-reset: the estimated profile of everything
        sampled since the previous ``take_epoch`` (or construction).

        Sample hits reset to zero for the next epoch, but the sampling
        phase is *carried across the boundary* — recreating the
        profiler per epoch would restart the virtual clock and silently
        drop the partial period straddling the epoch boundary.
        """
        prof = self.profile()
        self._reset_hits()
        return prof

    def _reset_hits(self) -> None:
        self._sample_hits[:] = 0

    @property
    def phase(self) -> int:
        """Instructions executed since the last sample (< period)."""
        return self._phase

    @property
    def samples_taken(self) -> int:
        return int(self._sample_hits.sum())


class LbrSampler(DcpiProfiler):
    """PC sampling plus LBR-style branch-burst capture.

    Every sample also records the last ``burst_width`` block
    transitions preceding the sampled instruction, scaled by
    ``period // burst_width`` so the edge estimates land on roughly
    the same scale as the block-count estimates.  Bursts never cross
    ``add_stream`` boundaries (a real LBR buffer is flushed on context
    switch, and callers feed per-CPU or per-process chunks).
    """

    def __init__(
        self, binary: Binary, period: int = 4096, burst_width: int = 32
    ) -> None:
        super().__init__(binary, period)
        if burst_width < 1:
            raise ValueError(f"burst width must be >= 1, got {burst_width}")
        self.burst_width = burst_width
        self._edge_hits: Dict[Tuple[int, int], int] = defaultdict(int)

    def _record_samples(self, trace: np.ndarray, idx: np.ndarray) -> None:
        super()._record_samples(trace, idx)
        width = self.burst_width
        scale = max(1, self.period // width)
        edges = self._edge_hits
        for i in idx.tolist():
            lo = max(0, i - width)
            burst = trace[lo:i + 1].tolist()
            for src, dst in zip(burst, burst[1:]):
                edges[(src, dst)] += scale

    def profile(self) -> Profile:
        """Estimated profile including burst-derived edge estimates.

        Edge counts are sampling *estimates*: they carry the relative
        weights chaining needs, but are not guaranteed consistent with
        the block counts the way an instrumented (Pixie) profile is —
        do not ``validate()`` them.
        """
        prof = super().profile()
        for edge, count in self._edge_hits.items():
            prof.edge_counts[edge] = count
        return prof

    def _reset_hits(self) -> None:
        super()._reset_hits()
        self._edge_hits.clear()
