"""Shared pieces of the benchmark workloads: seeding, resource use,
statistics and the run result."""

from __future__ import annotations

import gc
import multiprocessing
import os
import pathlib
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Tuple

from perfbench.ledger import BUSY, Ledger, install, is_time_metric

#: The seed that reproduces the committed tables (the repository's own
#: configuration); other seeds shift the profiling run's requests.
DEFAULT_SEED = 0

#: Units of the end-to-end metrics.
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "requests_per_s": "1/s",
    "recovered_mpki_mean": "MPKI",
}

#: Per-layer metrics, in report order; each workload reports all of
#: them (zero where a layer does no work).
LAYER_METRICS = (
    "progen.s", "osmodel.s",
    "execution.s", "execution.blocks", "execution.blocks_per_s",
    "profiles.s",
    "layout.s", "layout.builds",
    "check.s", "check.runs", "check.rejected",
    "ir.assign_s", "ir.expand_s", "ir.expand_instructions",
    "sim.grid_s", "sim.lru_s", "sim.instructions", "sim.minst_per_s",
    "store.load_s", "store.save_s", "store.hits", "store.misses",
    "store.read_bytes", "store.write_bytes",
    "pipeline.fanout_s", "pipeline.fanout_tasks", "pipeline.retries",
    "scenarios.cells", "scenarios.cells_failed",
    "serve.submit_ms_p50", "serve.memory_ms_p50", "serve.disk_ms_p50",
    "serve.built_ms_p50", "serve.coalesced_ms_p50",
    "serve.queue_wait_ms_p90",
    "serve.optimizations", "serve.coalesced", "serve.cache_hits",
    "serve.cache_disk_hits", "serve.rejected", "serve.gate_rejected",
    "serve.builds_per_profile", "serve.response_bytes_mean",
    "failed_frac",
    "bench.unattributed_frac", "bench.trace_overhead_frac",
)


def seeded_config(config, seed: int):
    """``config`` with the profiling run's TPC-B seed shifted by ``seed``.

    The profile, and so every optimized layout, changes with the seed;
    the binaries and the measurement trace do not, so every seed replays
    the same amount of work and timings compare across seeds.
    """
    if seed == DEFAULT_SEED:
        return config

    def workload(tpcb, seed_offset):
        from repro.workloads import TpcbWorkload

        if seed_offset == 0:  # the profiling run
            tpcb = replace(tpcb, seed=tpcb.seed + seed)
        return TpcbWorkload(tpcb)

    return replace(
        config, workload_factory=workload, cache_salt=f"perfbench-seed-{seed}"
    )


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """The largest resident set of this process or any reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def stop_children(timeout: float = 30.0) -> None:
    """Wait for every process this run started through ``multiprocessing``.

    Pool workers left by a ``shutdown(wait=False)`` are joined (and
    terminated if they outlive ``timeout``).  The resource tracker that
    shared memory starts is not a child ``multiprocessing`` waits for:
    it would outlive this process by however long it takes to notice
    its pipe closing.  Closing that pipe here and reaping the tracker
    makes the run end with no process of its own left.
    """
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def median(values: List[float]) -> float:
    """The median, 0.0 for no values."""
    return float(statistics.median(values)) if values else 0.0


def timed(fn: Callable) -> float:
    """Seconds one call of ``fn`` takes, from a freshly collected heap."""
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def iterate(seconds: float, body: Callable[[int], None], minimum: int = 1) -> int:
    """Call ``body(i)`` until ``seconds`` have passed (at least
    ``minimum`` times); returns the number of iterations.

    Each iteration starts from a freshly collected heap, so garbage left
    by the previous one is not collected inside the next one's timing.
    """
    start = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - start < seconds:
        gc.collect()
        body(count)
        count += 1
    return count


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    #: End-to-end metric name -> value.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metric name -> value (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: The per-layer values of each traced iteration, in order.
    samples: List[Dict[str, float]] = field(default_factory=list)
    #: Why the correctness check failed, one line per finding.
    problems: List[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        """Record a correctness failure."""
        self.correct = False
        self.problems.append(problem)

    def document(self, trace: bool) -> Dict:
        """The benchmark's JSON result line."""
        if trace:
            values = {name: self.layers.get(name, 0.0) for name in LAYER_METRICS}
            units = {name: layer_unit(name) for name in LAYER_METRICS}
        else:
            values = dict(self.metrics)
            units = {name: UNITS[name] for name in values}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in values.items()
            },
        }


def layer_unit(name: str) -> str:
    """The unit of one per-layer metric, read off its name."""
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("blocks_per_s"):
        return "1/s"
    if name.endswith("minst_per_s"):
        return "Minst/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "serve.builds_per_profile":
        return "ratio"
    if name.endswith("_bytes") or name.endswith("bytes_mean"):
        return "bytes"
    return "count"


def derive_layers(values: Dict[str, float], wall: float) -> Dict[str, float]:
    """Add the rates and the unattributed share to one ledger sample.

    Rates divide by busy time (worker seconds unscaled); the
    unattributed share compares wall-attributed layer seconds with the
    iteration's wall time.
    """
    layers = {k: v for k, v in values.items() if not k.startswith(BUSY)}
    attributed = sum(v for k, v in layers.items() if is_time_metric(k))
    busy_exec = values.get(BUSY + "execution.s", 0.0)
    if busy_exec > 0:
        layers["execution.blocks_per_s"] = values.get("execution.blocks", 0.0) / busy_exec
    busy_sim = values.get(BUSY + "sim.grid_s", 0.0) + values.get(BUSY + "sim.lru_s", 0.0)
    if busy_sim > 0:
        layers["sim.minst_per_s"] = values.get("sim.instructions", 0.0) / busy_sim / 1e6
    layers["bench.unattributed_frac"] = 1.0 - attributed / wall
    return layers


def median_layers(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over traced iterations (missing counts as 0)."""
    names = {name for sample in samples for name in sample}
    return {
        name: median([sample.get(name, 0.0) for sample in samples])
        for name in names
    }


def traced_iterations(
    seconds: float,
    trace: bool,
    run_one: Callable[[int], Tuple[float, Dict[str, float]]],
) -> Tuple[Dict[str, float], List[Dict[str, float]]]:
    """Run iterations for ``seconds``; with ``trace`` every other one
    (starting with the first) runs under the ledger.

    ``run_one(i)`` returns ``(wall seconds, extra layer values)``.
    Returns, for traced runs, the per-layer medians with
    ``bench.trace_overhead_frac`` (traced over untraced median wall,
    minus one) and the per-iteration samples; empty otherwise.
    """
    samples: List[Dict[str, float]] = []
    walls: Dict[bool, List[float]] = {True: [], False: []}

    def body(index: int) -> None:
        traced = trace and index % 2 == 0
        ledger = Ledger()
        installation = install(ledger) if traced else None
        try:
            wall, extra = run_one(index)
        finally:
            if installation is not None:
                installation.uninstall()
        walls[traced].append(wall)
        if traced:
            values = ledger.take()
            for name, value in extra.items():
                values[name] = values.get(name, 0.0) + value
            samples.append(derive_layers(values, wall))

    iterate(seconds, body, minimum=2 if trace else 1)
    if not trace:
        return {}, []
    layers = median_layers(samples)
    layers["bench.trace_overhead_frac"] = (
        median(walls[True]) / median(walls[False]) - 1.0
    )
    return layers, samples


@dataclass
class Context:
    """One benchmark run's settings and directories."""

    #: The checkout root (holds ``src/`` and ``benchmarks/``).
    root: pathlib.Path
    #: Scratch directory for stores and server caches (inside the checkout).
    work: pathlib.Path
    seed: int = DEFAULT_SEED
    seconds: float = 10.0
    trace: bool = False
    #: Times set-up is repeated for the ``setup_s`` median.
    setups: int = 5

    @property
    def src(self) -> pathlib.Path:
        """The package sources the benchmark runs."""
        return self.root / "src"
