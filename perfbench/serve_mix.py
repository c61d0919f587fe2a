"""``serve-mix``: the layout service under a closed-loop request mix.

The service runs as its own process (``repro serve`` on the quick
binary, thread-pool worker, gate on, fresh cache directory), started
through ``perfbench/serve_launcher.py``.  Two client threads
(:class:`LayoutClient`, no think time) replay a seeded request
sequence over the 8 epoch profiles of the quick phased TPC-B -> DSS
trace.  Each round has two halves:

1. an empty server: builds, coalesced waits and memory-tier hits;
2. the same cache directory after a server restart (clients paused,
   new clients): disk-tier hits, re-gated by the server, then memory
   hits.

Each client's half is a shuffled multiset with fixed popularity counts
(:data:`COUNTS`); the seed picks which profile holds which count (see
:func:`sequence`), so every seed has the same mix of builds and hits.
No simulation runs during measurement.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    Context,
    Outcome,
    cpu_seconds,
    iterate,
    median,
    median_layers,
    peak_rss_mb,
    percentile,
)
from perfbench.ledger import BUSY, union_seconds, load

EPOCHS = 8
CLIENTS = 2
#: Requests per popularity rank in one client's half of a round.
COUNTS = (9, 5, 3, 2, 2, 1, 1, 1)
COMBO = "all"
LAUNCHER = "perfbench/serve_launcher.py"
#: Geometry of ``recovered_mpki_mean`` (the matrix's i32 cells).
RECOVERY_CELL = (32 * 1024, 64)
#: Health counters reported as per-layer deltas.
HEALTH_COUNTERS = (
    "serve.optimizations", "serve.coalesced", "serve.cache_hits",
    "serve.cache_disk_hits", "serve.rejected", "serve.gate_rejected",
)


@dataclass
class Prepared:
    """The request inputs and what every answer must equal."""

    profiles: list
    fingerprints: List[str]
    references: List[Dict]
    recovered_mpki: float
    binary_digest: str


def _digest(binary) -> str:
    return hashlib.sha256(pickle.dumps(binary)).hexdigest()


def prepare() -> Prepared:
    """Epoch profiles, reference layouts (each passing a client-side
    ``check_layout``, structure then addresses) and their recovered
    MPKI over each epoch's own streams."""
    import numpy as np

    from repro.check import check_layout
    from repro.harness.experiment import Experiment
    from repro.harness.store import layout_to_dict
    from repro.ir import assign_addresses, baseline_layout
    from repro.layout import SpikeOptimizer
    from repro.online import phased_experiment_config
    from repro.online.sampler import epoch_streams
    from repro.profiles import PixieProfiler
    from repro.sim import simulate_grid

    exp = Experiment(phased_experiment_config(quick=True))
    binary = exp.app.binary
    streams_by_epoch = epoch_streams(exp.trace, EPOCHS)
    base_map = assign_addresses(binary, baseline_layout(binary))
    profiles, references, recovered = [], [], []
    for streams in streams_by_epoch:
        profiler = PixieProfiler(binary)
        for blocks, pids in streams:
            for pid in np.unique(pids):
                profiler.add_stream(blocks[pids == pid])
        profile = profiler.profile()
        layout = SpikeOptimizer(binary, profile).layout(COMBO)
        amap = assign_addresses(binary, layout)
        for report in (check_layout(binary, layout), check_layout(binary, layout, amap)):
            if not report.ok:
                raise RuntimeError(f"reference layout fails its gate: {report}")
        size, line = RECOVERY_CELL
        base_spans = [base_map.expand_spans(blocks) for blocks, _ in streams]
        opt_spans = [amap.expand_spans(blocks) for blocks, _ in streams]
        instructions = sum(int(counts.sum()) for _, counts in base_spans)
        base = simulate_grid(base_spans, [size], [line])[RECOVERY_CELL]
        opt = simulate_grid(opt_spans, [size], [line])[RECOVERY_CELL]
        recovered.append((base - opt) * 1000.0 / instructions)
        profiles.append(profile)
        references.append(layout_to_dict(layout))
    return Prepared(
        profiles=profiles,
        fingerprints=[p.fingerprint() for p in profiles],
        references=references,
        recovered_mpki=sum(recovered) / len(recovered),
        binary_digest=_digest(binary),
    )


def sequence(seed: int) -> List[List[List[int]]]:
    """``[half][client] -> profile indices`` for one round.

    The interleaving of popularity ranks is the same for every seed
    (drawn from a fixed generator), so every seed overlaps builds and
    hits alike and the latency percentiles compare across seeds; the
    seed decides which profile holds which rank.
    """
    pattern = random.Random(0)
    ranks = random.Random(seed).sample(range(EPOCHS), EPOCHS)
    halves = []
    for _half in range(2):
        clients = []
        for _client in range(CLIENTS):
            order = [r for r, count in enumerate(COUNTS) for _ in range(count)]
            pattern.shuffle(order)
            clients.append([ranks[r] for r in order])
        halves.append(clients)
    return halves


@dataclass
class Request:
    """One answered (or failed) layout request, client side."""

    start: float
    end: float
    profile: int
    source: str
    ok: bool
    equal: bool
    queue_wait_ms: float

    @property
    def ms(self) -> float:
        return 1000.0 * (self.end - self.start)


@dataclass
class Server:
    """A running ``repro serve`` process."""

    process: subprocess.Popen
    address: Tuple[str, int]
    start_seconds: float
    ledger_path: Optional[str] = None

    def stop(self) -> Dict[str, float]:
        """SIGINT, wait, and return its ledger values (if traced)."""
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        if self.ledger_path is None:
            return {}
        return load(self.ledger_path)


def start_server(ctx: Context, cache_dir, ledger_path: Optional[str]) -> Server:
    """Launch the server and wait until it listens."""
    command = [sys.executable, str(ctx.root / LAUNCHER)]
    if ledger_path is not None:
        command += ["--ledger", ledger_path]
    command += ["--", "--quiet", "--cache-dir", str(cache_dir), "serve", "--port", "0"]
    start = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ctx.root, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(ctx.src)),
    )
    line = process.stdout.readline()
    elapsed = time.perf_counter() - start
    if "listening on ('" not in line:
        process.kill()
        process.wait()
        raise RuntimeError(f"layout server failed to start: {line!r}")
    host, port = line.split("listening on ('", 1)[1].split(")", 1)[0].split("', ")
    return Server(process, (host, int(port)), elapsed, ledger_path)


def _health(address) -> Dict[str, int]:
    from repro.serve import ClientConfig, LayoutClient

    probe = LayoutClient(address, ClientConfig(max_attempts=1), name="probe")
    return dict(probe.health().counters)


@dataclass
class Half:
    """What the clients saw during one half of a round."""

    requests: List[Request] = field(default_factory=list)
    #: ``(start, end)`` of each profile submission.
    submits: List[Tuple[float, float]] = field(default_factory=list)
    seconds: float = 0.0


def replay(prep: Prepared, address, orders: List[List[int]]) -> Half:
    """Drive one half: one closed-loop thread per client order."""
    from repro.serve import SOURCE_FALLBACK, ClientConfig, LayoutClient

    half = Half()
    lock = threading.Lock()
    barrier = threading.Barrier(len(orders))

    def client_loop(index: int, order: List[int]) -> None:
        client = LayoutClient(
            address, ClientConfig(timeout_s=60.0, seed=index), name=f"bench-{index}"
        )
        submitted = set()
        barrier.wait(timeout=60)
        for k in order:
            profile = prep.profiles[k]
            if k not in submitted:
                start = time.perf_counter()
                client.submit_profile(profile)
                with lock:
                    half.submits.append((start, time.perf_counter()))
                submitted.add(k)
            start = time.perf_counter()
            response = client.fetch_layout(profile, COMBO)
            end = time.perf_counter()
            ok = response.ok and response.source != SOURCE_FALLBACK
            request = Request(
                start, end, k, response.source, ok,
                response.layout == prep.references[k], response.queue_wait_ms,
            )
            with lock:
                half.requests.append(request)

    threads = [
        threading.Thread(target=client_loop, args=(i, order), name=f"bench-{i}")
        for i, order in enumerate(orders)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    half.seconds = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve-mix client did not finish")
    return half


def _response_bytes(prep: Prepared, requests: List[Request]) -> float:
    from repro.serve import LayoutResponse, encode_message

    sizes: Dict[Tuple[int, str], int] = {}
    total = 0
    for request in requests:
        key = (request.profile, request.source)
        if key not in sizes:
            sizes[key] = len(encode_message(LayoutResponse(
                status="ok", fingerprint=prep.fingerprints[request.profile],
                combo=COMBO, source=request.source,
                layout=prep.references[request.profile],
            )))
        total += sizes[key]
    return total / len(requests)


def _round_layers(prep, halves, health, server_values, wall) -> Dict[str, float]:
    """One traced round's per-layer sample."""
    requests = [r for half in halves for r in half.requests]
    by_source: Dict[str, List[float]] = {}
    for request in requests:
        by_source.setdefault(request.source, []).append(request.ms)
    layers = {k: v for k, v in server_values.items() if not k.startswith(BUSY)}
    layers.update({
        f"serve.{source}_ms_p50": median(by_source.get(source, []))
        for source in ("memory", "disk", "built", "coalesced")
    })
    submits = [interval for half in halves for interval in half.submits]
    layers["serve.submit_ms_p50"] = median([1000.0 * (e - s) for s, e in submits])
    waits = [r.queue_wait_ms for r in requests if r.source == "built"]
    layers["serve.queue_wait_ms_p90"] = percentile(waits, 90)
    layers.update(health)
    built = health.get("serve.optimizations", 0)
    useful = len({r.profile for r in requests})
    layers["serve.builds_per_profile"] = useful / built if built else 0.0
    layers["serve.response_bytes_mean"] = _response_bytes(prep, requests)
    layers["failed_frac"] = sum(not r.ok for r in requests) / len(requests)
    covered = union_seconds([(r.start, r.end) for r in requests] + submits)
    layers["bench.unattributed_frac"] = 1.0 - covered / wall
    return layers


def run(ctx: Context, prep: Optional[Prepared] = None) -> Outcome:
    """Measure the workload; ``prep`` may be shared across runs (tests)."""
    from repro.harness.experiment import quick_experiment
    from repro.harness.store import load_program

    outcome = Outcome()
    prep = prep or prepare()
    orders = sequence(ctx.seed)
    served_fingerprint = quick_experiment().config.fingerprint()
    setups: List[float] = []
    #: Per half of a round, its replay seconds in every round.
    half_walls: List[List[float]] = [[] for _ in orders]
    cpus: List[float] = []
    requests_per_round = sum(len(order) for clients in orders for order in clients)
    latencies: List[float] = []
    samples: List[Dict[str, float]] = []
    traced_walls: Dict[bool, List[float]] = {True: [], False: []}

    def round_(index: int) -> None:
        traced = ctx.trace and index % 2 == 0
        cache_dir = ctx.work / f"serve-{index}"
        cpu_before = cpu_seconds()
        halves: List[Half] = []
        health: Dict[str, float] = {}
        server_values: Dict[str, float] = {}
        setup = 0.0
        for half_index, clients in enumerate(orders):
            ledger_path = (
                str(ctx.work / f"serve-{index}-{half_index}.json") if traced else None
            )
            server = start_server(ctx, cache_dir, ledger_path)
            setup += server.start_seconds
            try:
                if index == 0 and half_index == 0:
                    served = load_program(cache_dir / served_fingerprint / "app.pkl")
                    if _digest(served.binary) != prep.binary_digest:
                        raise RuntimeError("served binary differs from the phased one")
                before = _health(server.address) if traced else {}
                halves.append(replay(prep, server.address, clients))
                after = _health(server.address) if traced else {}
            finally:
                values = server.stop()
            for name in HEALTH_COUNTERS if traced else ():
                health[name] = health.get(name, 0) + after.get(name, 0) - before.get(name, 0)
            for name, value in values.items():
                server_values[name] = server_values.get(name, 0.0) + value
        shutil.rmtree(cache_dir, ignore_errors=True)
        setups.append(setup)
        cpus.append(cpu_seconds() - cpu_before)
        requests = [r for half in halves for r in half.requests]
        wall = sum(half.seconds for half in halves)
        for seconds, half in zip(half_walls, halves):
            seconds.append(half.seconds)
        traced_walls[traced].append(wall)
        latencies.extend(r.ms for r in requests)
        outcome.attempted += len(requests)
        outcome.failed += sum(not r.ok for r in requests)
        wrong = [r for r in requests if r.ok and not r.equal]
        if wrong:
            outcome.fail(
                f"round {index}: {len(wrong)} served layout(s) differ from "
                "SpikeOptimizer(binary, profile).layout('all')"
            )
        if traced:
            samples.append(_round_layers(prep, halves, health, server_values, wall))

    iterate(ctx.seconds, round_, minimum=2 if ctx.trace else 1)
    if samples:
        outcome.samples = samples
        outcome.layers = median_layers(samples)
        outcome.layers["bench.trace_overhead_frac"] = (
            median(traced_walls[True]) / median(traced_walls[False]) - 1.0
        )
    # A round is both halves: sum the per-half medians.
    wall = sum(median(seconds) for seconds in half_walls)
    outcome.metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "cpu_s": median(cpus),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "requests_per_s": requests_per_round / wall,
        "recovered_mpki_mean": prep.recovered_mpki,
    }
    return outcome
