"""The simulated fleet: N client nodes driving one layout service.

Each fleet run cuts a phase-shifting workload's measurement trace into
epochs (:func:`repro.online.sampler.epoch_streams`), builds the exact
per-epoch profile (:func:`~repro.online.sampler.epoch_profile`), and
has every client thread submit that profile and request its optimized
layout for the same epoch at the same time (barrier-synchronized — the
worst case for the server, the best case for coalescing).  Applied
layouts are measured by replaying the epoch's fetch stream through
:func:`~repro.online.sampler.epoch_mpki`, so the report speaks the
paper's language: misses per 1k instructions.

Two scenarios:

* **healthy** — the server stays up; the acceptance gate is that
  coalescing plus the layout cache bound actual optimizations to the
  number of distinct profiles, not the number of requests.
* **degraded** — the server is stopped after ``kill_after`` epochs;
  clients must finish the remaining (drifted!) epochs on last-known-
  good layouts via the client fallback path, with no unhandled
  exceptions and a bounded, *reported* miss-rate decay.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cache import CacheGeometry
from repro.check import check_all
from repro.errors import ConfigError, ServeError
from repro.harness.store import layout_from_dict
from repro.ir import AddressMap, assign_addresses
from repro.layout import Combo, SpikeOptimizer
from repro.online.sampler import epoch_mpki, epoch_profile, epoch_streams
from repro.serve.client import ClientConfig, LayoutClient, SOURCE_FALLBACK
from repro.serve.protocol import LayoutResponse
from repro.serve.server import ServerConfig, ServerThread, serve_counters

#: Worst degraded-epoch miss-rate decay the acceptance gate allows.
MAX_DECAY = 3.0


@dataclass
class FleetConfig:
    """Shape of one simulated fleet run."""

    #: Concurrent client nodes.
    clients: int = 8
    #: Epochs the measurement trace is cut into (= distinct profiles;
    #: the phased workload makes successive epochs drift).
    epochs: int = 4
    #: Optimization combination every client requests.
    combo: str = "all"
    #: Kill the server after this many epochs (None = stay healthy).
    kill_after: Optional[int] = None
    #: Server admission-control limit (optimizations in flight).
    queue_limit: int = 8
    #: Server optimization workers (0 = in-process thread pool).
    workers: int = 0
    #: Client request policy (short timeouts keep degraded runs fast).
    timeout_s: float = 10.0
    max_attempts: int = 2
    backoff_s: float = 0.02
    breaker_threshold: int = 2
    breaker_cooldown_s: float = 30.0
    #: I-cache geometry epochs are measured against.
    cache_bytes: int = 16 * 1024
    line_bytes: int = 64
    associativity: int = 2

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigError(f"fleet needs >= 1 client, got {self.clients}")
        if self.epochs < 1:
            raise ConfigError(f"fleet needs >= 1 epoch, got {self.epochs}")
        if self.kill_after is not None and not (
            0 < self.kill_after < self.epochs
        ):
            raise ConfigError(
                f"kill_after must be in 1..{self.epochs - 1}, "
                f"got {self.kill_after}"
            )

    @property
    def geometry(self) -> CacheGeometry:
        """The measurement I-cache geometry."""
        return CacheGeometry(
            self.cache_bytes, self.line_bytes, self.associativity
        )


@dataclass
class EpochOutcome:
    """What one epoch looked like across the fleet."""

    epoch: int
    degraded: bool
    instructions: int
    requests: int
    served: int
    fallbacks: int
    failures: int
    sources: Dict[str, int]
    #: MPKI of the layout the fleet actually ran.
    served_mpki: float
    #: MPKI of a fresh layout built from this epoch's exact profile.
    fresh_mpki: float
    gate_ok: bool

    @property
    def decay(self) -> float:
        """Served-layout miss rate relative to a fresh build (>= ~1)."""
        return self.served_mpki / max(self.fresh_mpki, 1e-12)


@dataclass
class FleetReport:
    """One fleet scenario, epoch by epoch, plus the server's counters."""

    config: FleetConfig
    epochs: List[EpochOutcome] = field(default_factory=list)
    #: serve.* counter deltas over the run (server + clients).
    counters: Dict[str, int] = field(default_factory=dict)
    queue_wait_p95_ms: float = 0.0
    #: Client-thread exceptions that escaped the resilience policy.
    unhandled_errors: List[str] = field(default_factory=list)

    # -- derived ----------------------------------------------------------

    @property
    def requests(self) -> int:
        """Layout requests issued across all clients and epochs."""
        return sum(e.requests for e in self.epochs)

    @property
    def optimizations(self) -> int:
        """Optimizations the server actually ran."""
        return self.counters.get("serve.optimizations", 0)

    @property
    def coalesced(self) -> int:
        """Requests answered by piggybacking on an in-flight build."""
        return self.counters.get("serve.coalesced", 0)

    @property
    def cache_hits(self) -> int:
        """Requests answered from the layout cache (both tiers)."""
        return self.counters.get(
            "serve.cache_hits", 0
        ) + self.counters.get("serve.cache_disk_hits", 0)

    @property
    def fallbacks(self) -> int:
        """Requests answered from client-side last-known-good layouts."""
        return sum(e.fallbacks for e in self.epochs)

    @property
    def healthy_epochs(self) -> List[EpochOutcome]:
        """Epochs served with the server up."""
        return [e for e in self.epochs if not e.degraded]

    @property
    def degraded_epochs(self) -> List[EpochOutcome]:
        """Epochs finished on fallback layouts."""
        return [e for e in self.epochs if e.degraded]

    @property
    def decay_ratio(self) -> float:
        """Worst degraded-epoch miss rate relative to a fresh build
        (1.0 when the run had no degraded epochs)."""
        degraded = self.degraded_epochs
        if not degraded:
            return 1.0
        return max(e.decay for e in degraded)

    @property
    def optimizations_bounded(self) -> bool:
        """At most two server builds per healthy epoch, i.e. per
        distinct profile (one would be perfect; two forgives a cache
        race), and never more than eight."""
        return self.optimizations <= min(2 * len(self.healthy_epochs), 8)

    @property
    def decay_bounded(self) -> bool:
        """The decay ratio stayed within :data:`MAX_DECAY`."""
        return self.decay_ratio <= MAX_DECAY

    def passes(self) -> bool:
        """The acceptance gate for this scenario.

        Healthy epochs: every request served, every layout gated, and
        coalescing + caching bound server work
        (:attr:`optimizations_bounded`) — far below one build per request.
        Degraded epochs: no unhandled exceptions, every client finished
        on a fallback layout, and the decay stayed within
        :data:`MAX_DECAY`.
        """
        if self.unhandled_errors:
            return False
        healthy = self.healthy_epochs
        if healthy:
            if any(e.failures or not e.gate_ok for e in healthy):
                return False
            expected = self.config.clients * len(healthy)
            if sum(e.requests for e in healthy) < expected:
                return False
            if not self.optimizations_bounded:
                return False
            saved = self.coalesced + self.cache_hits
            if saved < sum(e.requests for e in healthy) - self.optimizations:
                return False
        for epoch in self.degraded_epochs:
            if epoch.failures or not epoch.gate_ok:
                return False
            if epoch.fallbacks == 0:
                return False
        if self.degraded_epochs and not self.decay_bounded:
            return False
        return True

    def to_dict(self) -> Dict:
        """JSON-ready view (the ``--json`` CLI form)."""
        return {
            "config": {
                "clients": self.config.clients,
                "epochs": self.config.epochs,
                "combo": self.config.combo,
                "kill_after": self.config.kill_after,
                "queue_limit": self.config.queue_limit,
                "workers": self.config.workers,
            },
            "epochs": [
                {
                    "epoch": e.epoch,
                    "degraded": e.degraded,
                    "instructions": e.instructions,
                    "requests": e.requests,
                    "served": e.served,
                    "fallbacks": e.fallbacks,
                    "failures": e.failures,
                    "sources": dict(e.sources),
                    "served_mpki": round(e.served_mpki, 4),
                    "fresh_mpki": round(e.fresh_mpki, 4),
                    "decay": round(e.decay, 4),
                    "gate_ok": e.gate_ok,
                }
                for e in self.epochs
            ],
            "requests": self.requests,
            "optimizations": self.optimizations,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "fallbacks": self.fallbacks,
            "decay_ratio": round(self.decay_ratio, 4),
            "queue_wait_p95_ms": round(self.queue_wait_p95_ms, 3),
            "counters": dict(self.counters),
            "unhandled_errors": list(self.unhandled_errors),
            "passes": self.passes(),
        }

    def render(self) -> str:
        """The human-readable fleet table."""
        title = (
            f"fleet: {self.config.clients} clients x {self.config.epochs} "
            f"epochs, combo={self.config.combo}"
        )
        if self.config.kill_after is not None:
            title += f", server killed after epoch {self.config.kill_after}"
        lines = [
            title,
            "",
            f"{'epoch':>5}  {'mode':<8}  {'reqs':>5}  {'served':>6}  "
            f"{'fallbk':>6}  {'fail':>4}  {'mpki':>7}  {'fresh':>7}  "
            f"{'decay':>6}  sources",
        ]
        lines.append("-" * len(lines[-1]))
        for e in self.epochs:
            sources = ",".join(
                f"{k}:{v}" for k, v in sorted(e.sources.items())
            )
            lines.append(
                f"{e.epoch:>5}  {'degraded' if e.degraded else 'healthy':<8}  "
                f"{e.requests:>5}  {e.served:>6}  {e.fallbacks:>6}  "
                f"{e.failures:>4}  {e.served_mpki:>7.3f}  "
                f"{e.fresh_mpki:>7.3f}  {e.decay:>6.3f}  {sources}"
            )
        lines.append("")
        lines.append(
            f"{self.requests} requests -> {self.optimizations} "
            f"optimizations ({self.coalesced} coalesced, "
            f"{self.cache_hits} cache hits, {self.fallbacks} fallbacks); "
            f"queue-wait p95 {self.queue_wait_p95_ms:.1f} ms; "
            f"decay ratio {self.decay_ratio:.3f}; "
            f"{'PASS' if self.passes() else 'FAIL'}"
        )
        if self.unhandled_errors:
            lines.append("unhandled errors:")
            lines.extend(f"  {err}" for err in self.unhandled_errors)
        return "\n".join(lines) + "\n"


def _gate(binary, layout) -> Tuple[bool, Optional[AddressMap]]:
    """Re-run the repro.check gate fleet-side on a served layout;
    returns the verdict and the gate's placement (None when the gate
    placed nothing)."""
    try:
        report = check_all(binary, layout=layout, target="fleet")
    except Exception:
        return False, None
    return report.ok, report.address_map


def run_fleet(
    exp,
    config: Optional[FleetConfig] = None,
    *,
    address=None,
) -> FleetReport:
    """Drive one fleet scenario; returns the epoch-by-epoch report.

    ``exp`` supplies the binary and the (phase-shifting) measurement
    trace.  With ``address`` set the fleet talks to an already-running
    server (and ``kill_after`` must be None — the driver can only kill
    servers it owns); otherwise a server thread is started in-process
    against the experiment's artifact store.
    """
    config = config or FleetConfig()
    combo = Combo.parse(config.combo).value
    binary = exp.app.binary
    geometry = config.geometry
    streams_by_epoch = epoch_streams(exp.trace, config.epochs)
    profiles = [epoch_profile(binary, streams) for streams in streams_by_epoch]

    handle: Optional[ServerThread] = None
    if address is None:
        handle = ServerThread.start(
            binary,
            store=exp.store,
            config=ServerConfig(
                queue_limit=config.queue_limit, workers=config.workers
            ),
        )
        address = handle.address
    elif config.kill_after is not None:
        raise ConfigError(
            "kill_after needs a driver-owned server; drop address= or "
            "kill_after"
        )

    # With a driver-owned server everything shares one metric registry;
    # an external server's counters live in its process and are read
    # over the wire via the health endpoint instead.
    probe: Optional[LayoutClient] = None
    before_remote: Dict[str, int] = {}
    if handle is None:
        probe = LayoutClient(
            address, ClientConfig(max_attempts=1), name="fleet-probe"
        )
        before_remote = _remote_counters(probe)

    before = serve_counters()
    report = FleetReport(config=config)
    clients = [
        LayoutClient(
            address,
            ClientConfig(
                timeout_s=config.timeout_s,
                max_attempts=config.max_attempts,
                backoff_s=config.backoff_s,
                breaker_threshold=config.breaker_threshold,
                breaker_cooldown_s=config.breaker_cooldown_s,
                seed=index,
            ),
            name=f"client-{index}",
        )
        for index in range(config.clients)
    ]

    try:
        barrier = threading.Barrier(config.clients)
        for epoch_index, (profile, streams) in enumerate(
            zip(profiles, streams_by_epoch)
        ):
            degraded = (
                config.kill_after is not None
                and epoch_index >= config.kill_after
            )
            responses: List[Optional[LayoutResponse]] = [None] * len(clients)
            errors: List[Optional[str]] = [None] * len(clients)

            def fetch(index: int, client: LayoutClient) -> None:
                try:
                    barrier.wait(timeout=60.0)
                    responses[index] = client.fetch_layout(profile, combo)
                except ServeError as exc:
                    errors[index] = f"{client.name}: {exc}"
                except Exception as exc:  # the degraded-mode no-crash gate
                    errors[index] = f"{client.name}: UNHANDLED {exc!r}"
                    report.unhandled_errors.append(errors[index])

            threads = [
                threading.Thread(
                    target=fetch, args=(i, c), name=f"fleet-{i}"
                )
                for i, c in enumerate(clients)
            ]
            with obs.span(
                "serve.fleet_epoch", epoch=epoch_index, degraded=degraded
            ):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)

            served = [r for r in responses if r is not None and r.ok]
            sources: Dict[str, int] = {}
            for response in served:
                source = response.source or "server"
                sources[source] = sources.get(source, 0) + 1
            fresh_layout = SpikeOptimizer(binary, profile).layout(combo)
            fresh_mpki, instructions = epoch_mpki(
                assign_addresses(binary, fresh_layout), streams, geometry
            )
            if served:
                served_layout = layout_from_dict(served[0].layout, binary)
                gate_ok, served_map = _gate(binary, served_layout)
                if served_map is None:
                    served_map = assign_addresses(binary, served_layout)
                served_mpki, _ = epoch_mpki(served_map, streams, geometry)
            else:
                served_mpki, gate_ok = float("nan"), False
            report.epochs.append(
                EpochOutcome(
                    epoch=epoch_index,
                    degraded=degraded,
                    instructions=instructions,
                    requests=len(clients),
                    served=len(served),
                    fallbacks=sum(
                        1 for r in served if r.source == SOURCE_FALLBACK
                    ),
                    failures=sum(1 for e in errors if e is not None),
                    sources=sources,
                    served_mpki=served_mpki,
                    fresh_mpki=fresh_mpki,
                    gate_ok=gate_ok,
                )
            )

            if (
                handle is not None
                and config.kill_after is not None
                and epoch_index + 1 == config.kill_after
            ):
                handle.stop()
    finally:
        if handle is not None:
            report.queue_wait_p95_ms = handle.server.queue_wait_p95_ms()
            handle.stop()

    after = serve_counters()
    after_remote = _remote_counters(probe) if probe is not None else {}
    deltas: Dict[str, int] = {}
    for name in set(after) | set(after_remote):
        delta = after.get(name, 0) - before.get(name, 0)
        delta += after_remote.get(name, 0) - before_remote.get(name, 0)
        if delta:
            deltas[name] = delta
    report.counters = dict(sorted(deltas.items()))
    return report


def _remote_counters(probe: LayoutClient) -> Dict[str, int]:
    """An external server's ``serve.*`` counters (empty when down)."""
    try:
        return dict(probe.health().counters)
    except ServeError:
        return {}

