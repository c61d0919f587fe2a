"""Workload drivers (TPC-B, DSS, phase-shifting mixes, and the
synthetic generator)."""

from repro.workloads.dss import (
    DssClient,
    DssConfig,
    DssQuery,
    DssWorkload,
    QUERY_MIX,
)
from repro.workloads.phased import (
    PHASE_MIXES,
    Phase,
    PhasedClient,
    PhasedConfig,
    PhasedWorkload,
)
from repro.workloads.synth import (
    MIX_PRESETS,
    OP_KINDS,
    SynthPhase,
    SyntheticClient,
    SyntheticConfig,
    SyntheticTransaction,
    SyntheticWorkload,
)
from repro.workloads.tpcb import (
    KEY_COLUMNS,
    SCHEMA,
    TpcbClient,
    TpcbWorkload,
    TpcbConfig,
    TpcbGenerator,
    TpcbRequest,
    TpcbTransaction,
    create_schema,
    database_scale,
    load_database,
    run_transactions,
    snapshot_database,
)


__all__ = [
    "DssClient",
    "DssConfig",
    "DssQuery",
    "DssWorkload",
    "QUERY_MIX",
    "PHASE_MIXES",
    "Phase",
    "PhasedClient",
    "PhasedConfig",
    "PhasedWorkload",
    "TpcbClient",
    "TpcbWorkload",
    "KEY_COLUMNS",
    "SCHEMA",
    "TpcbConfig",
    "TpcbGenerator",
    "TpcbRequest",
    "TpcbTransaction",
    "create_schema",
    "database_scale",
    "load_database",
    "run_transactions",
    "snapshot_database",
    "MIX_PRESETS",
    "OP_KINDS",
    "SynthPhase",
    "SyntheticClient",
    "SyntheticConfig",
    "SyntheticTransaction",
    "SyntheticWorkload",
]
