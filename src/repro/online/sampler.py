"""Online profile collection: rolling epoch profiles from live traces.

The :class:`OnlineSampler` taps the per-CPU block streams the system
emits while serving traffic and maintains one LBR-style burst sampler
(:class:`~repro.profiles.dcpi.LbrSampler`) per CPU.  At each epoch
boundary :meth:`end_epoch` merges the per-CPU samples into a single
:class:`EpochProfile` and resets the hit counters — but *not* the
sampling phase, which keeps running across the boundary so epoch
slicing never distorts where samples land.

:func:`epoch_streams` slices a recorded
:class:`~repro.execution.trace.SystemTrace` into per-epoch, per-CPU
application streams, which is how the harness replays a measurement
run as if the sampler had been attached live.  :func:`epoch_profile`
and :func:`epoch_mpki` are the one way the online loop and the fleet
profile an epoch exactly and measure a layout over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cache import CacheGeometry
from repro.errors import ProfileError
from repro.execution.trace import SystemTrace
from repro.ir import AddressMap, Binary
from repro.profiles.dcpi import LbrSampler
from repro.profiles.pixie import PixieProfiler
from repro.profiles.profile import Profile
from repro.sim import MemoryHierarchy, simulate


@dataclass
class EpochProfile:
    """One epoch's merged sampled profile.

    ``reliable`` is False when the epoch produced fewer than the
    sampler's ``min_samples`` PC samples — too little evidence to
    judge drift, let alone retrain a layout.  The controller holds
    the current layout on unreliable epochs.
    """

    epoch: int
    profile: Profile
    samples: int
    reliable: bool


class OnlineSampler:
    """Per-CPU burst samplers feeding rolling epoch profiles."""

    def __init__(
        self,
        binary: Binary,
        cpus: int,
        period: int = 64,
        burst_width: int = 32,
        min_samples: int = 64,
    ) -> None:
        if cpus < 1:
            raise ProfileError(f"need at least one CPU, got {cpus}")
        if min_samples < 0:
            raise ProfileError(f"min_samples must be >= 0, got {min_samples}")
        self.binary = binary
        self.period = period
        self.burst_width = burst_width
        self.min_samples = min_samples
        self._samplers = [
            LbrSampler(binary, period=period, burst_width=burst_width)
            for _ in range(cpus)
        ]
        self._epoch = 0

    @property
    def cpus(self) -> int:
        """Number of per-CPU samplers."""
        return len(self._samplers)

    @property
    def epoch(self) -> int:
        """Index of the epoch currently being collected."""
        return self._epoch

    def observe(self, cpu: int, block_trace: np.ndarray) -> None:
        """Feed one CPU's block stream (any chunk size)."""
        if not 0 <= cpu < len(self._samplers):
            raise ProfileError(
                f"cpu {cpu} out of range (sampler has {len(self._samplers)})"
            )
        self._samplers[cpu].add_stream(block_trace)

    def end_epoch(self) -> EpochProfile:
        """Close the current epoch: merge per-CPU samples and reset
        hit counters (sampling phases keep running)."""
        samples = sum(s.samples_taken for s in self._samplers)
        merged = Profile(self.binary)
        for sampler in self._samplers:
            merged.merge(sampler.take_epoch())
        result = EpochProfile(
            epoch=self._epoch,
            profile=merged,
            samples=samples,
            reliable=samples >= self.min_samples,
        )
        self._epoch += 1
        return result


#: One epoch's per-CPU ``(blocks, pids)`` application streams.
EpochStreams = List[Tuple[np.ndarray, np.ndarray]]


def epoch_streams(trace: SystemTrace, epochs: int) -> List[EpochStreams]:
    """Slice a recorded system trace into per-epoch application streams.

    Returns ``[epoch][cpu] -> (blocks, pids)`` where each CPU's
    application-only stream (kernel blocks stripped) is cut into
    ``epochs`` equal-length contiguous slices.  Equal slicing by
    stream position approximates equal wall-clock epochs: every CPU
    advances through its trace at the simulator's uniform rate.
    """
    if epochs < 1:
        raise ProfileError(f"need at least one epoch, got {epochs}")
    per_cpu = []
    for cpu in trace.cpus:
        mask = cpu.blocks < trace.kernel_offset
        blocks = cpu.blocks[mask]
        pids = cpu.pids[mask]
        bounds = np.linspace(0, len(blocks), epochs + 1).astype(np.int64)
        per_cpu.append(
            [
                (blocks[bounds[e]:bounds[e + 1]], pids[bounds[e]:bounds[e + 1]])
                for e in range(epochs)
            ]
        )
    return [[per_cpu[c][e] for c in range(len(per_cpu))] for e in range(epochs)]


def epoch_profile(binary: Binary, streams: EpochStreams) -> Profile:
    """The exact (Pixie) profile of one epoch, one stream per process."""
    profiler = PixieProfiler(binary)
    for blocks, pids in streams:
        for pid in np.unique(pids):
            profiler.add_stream(blocks[pids == pid])
    return profiler.profile()


def epoch_mpki(
    amap: AddressMap, streams: EpochStreams, geometry: CacheGeometry
) -> Tuple[float, int]:
    """``(mpki, instructions)`` of one epoch replayed through one
    address map on an L1I-only hierarchy of ``geometry``."""
    spans = [amap.expand_spans(blocks) for blocks, _pids in streams]
    result = simulate(spans, MemoryHierarchy.l1i_only(geometry))
    return result.mpki, result.instructions
