"""repro.serve — the layout-optimization service.

The deployment story for the paper's optimizations: instead of every
node running Spike offline, a fleet of transaction-processing nodes
ships execution profiles to one service that optimizes, verifies, and
caches layouts for them.

* :mod:`repro.serve.protocol` — versioned messages over
  length-prefixed JSONL frames (TCP or unix sockets).
* :mod:`repro.serve.server` — asyncio server with admission control,
  single-flight request coalescing, a worker pool, and the
  ``repro.check`` swap gate on every outgoing layout.
* :mod:`repro.serve.cache` — two-tier layout cache (in-memory LRU
  over the persistent artifact store).
* :mod:`repro.serve.client` — resilient client: timeouts, backoff +
  jitter retries, a circuit breaker, last-known-good fallback.
* :mod:`repro.serve.fleet` — the simulated fleet driver and its
  acceptance gates (healthy and degraded scenarios).

Everything is observable through ``serve.*`` spans, counters, and
series in :mod:`repro.obs`; ``repro serve`` / ``repro fleet`` are the
CLI entry points.
"""

from repro.serve.cache import LayoutCache
from repro.serve.client import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ClientConfig,
    LayoutClient,
    SOURCE_FALLBACK,
)
from repro.serve.fleet import (
    EpochOutcome,
    FleetConfig,
    FleetReport,
    run_fleet,
)
from repro.serve.protocol import (
    ErrorResponse,
    HealthRequest,
    HealthResponse,
    LayoutRequest,
    LayoutResponse,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProfileSubmit,
    SOURCE_BUILT,
    SOURCE_COALESCED,
    SOURCE_DISK,
    SOURCE_MEMORY,
    SOURCE_STATIC,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    SubmitAck,
    encode_message,
    decode_body,
    read_message,
    read_message_sync,
)
from repro.serve.server import (
    LayoutServer,
    ServerConfig,
    ServerThread,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "ClientConfig",
    "EpochOutcome",
    "ErrorResponse",
    "FleetConfig",
    "FleetReport",
    "HealthRequest",
    "HealthResponse",
    "LayoutCache",
    "LayoutClient",
    "LayoutRequest",
    "LayoutResponse",
    "LayoutServer",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProfileSubmit",
    "SOURCE_BUILT",
    "SOURCE_COALESCED",
    "SOURCE_DISK",
    "SOURCE_FALLBACK",
    "SOURCE_MEMORY",
    "SOURCE_STATIC",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_REJECTED",
    "ServerConfig",
    "ServerThread",
    "SubmitAck",
    "decode_body",
    "encode_message",
    "read_message",
    "read_message_sync",
    "run_fleet",
]
