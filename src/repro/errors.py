"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class IRError(ReproError):
    """Malformed binary IR: bad successor wiring, duplicate names, etc."""


class LayoutError(ReproError):
    """A layout is inconsistent with the binary it claims to place."""


class ConfigError(ReproError):
    """An experiment configuration is inconsistent (e.g. a custom
    workload factory without a cache salt to disambiguate it)."""


class ProfileError(ReproError):
    """Profile data is missing or inconsistent with the binary."""


class DatabaseError(ReproError):
    """Base class for mini-DBMS errors."""


class PageError(DatabaseError):
    """Page-level corruption or misuse (bad slot, overflow, checksum)."""


class BufferPoolError(DatabaseError):
    """Buffer pool misuse (unpinning an unpinned page, pool exhaustion)."""


class LockError(DatabaseError):
    """Lock manager failure (deadlock, illegal release)."""


class DeadlockError(LockError):
    """A lock request would deadlock; the transaction should abort."""


class TransactionError(DatabaseError):
    """Transaction protocol misuse (commit of an aborted txn, etc.)."""


class KeyNotFoundError(DatabaseError):
    """A point lookup did not find the requested key."""


class DuplicateKeyError(DatabaseError):
    """An insert collided with an existing unique key."""


class WorkloadError(ReproError):
    """Workload configuration or driver failure."""


class SimulationError(ReproError):
    """Execution/cache/timing simulation misconfiguration."""


class ParallelError(ReproError):
    """A parallel fan-out failed structurally: a worker crashed or a
    task exceeded the hard timeout.  The message names the offending
    task index so sweeps can report which cell hung or died."""


class PipelineError(ReproError):
    """A runner was given a duplicate stage key, asked for a stage it
    does not declare, or a stage's build asked for itself."""


class ScenarioError(ReproError):
    """A scenario specification is invalid (unknown workload kind,
    incompatible engine/hierarchy pair, malformed matrix file) or a
    matrix run was asked for something it cannot do."""


class ServeError(ReproError):
    """Layout-service failure: protocol violation, unreachable server
    with no fallback layout, or a served artifact failing the gate."""


class ProtocolError(ServeError):
    """A wire message violated the serve protocol (bad frame, unknown
    type, version mismatch, or malformed payload)."""
