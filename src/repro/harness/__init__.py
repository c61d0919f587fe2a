"""Experiment harness: the pipeline, the artifact store and the figure tables."""

from repro.harness.experiment import (
    Experiment,
    ExperimentConfig,
    STREAM_SCOPES,
    StreamSet,
    default_experiment,
    dss_config,
    quick_experiment,
    uniprocessor_config,
)
from repro.harness import figures
from repro.harness.results import (
    RESULTS_SCHEMA_VERSION,
    read_history,
    run_id,
    table_payload,
    write_benchmark_json,
)
from repro.harness.store import (
    ArtifactStore,
    StoreInfo,
    default_cache_dir,
    load_layout,
    load_profile,
    load_program,
    load_trace,
    save_layout,
    save_profile,
    save_program,
    save_trace,
)

__all__ = [
    "ArtifactStore",
    "Experiment",
    "ExperimentConfig",
    "RESULTS_SCHEMA_VERSION",
    "STREAM_SCOPES",
    "StoreInfo",
    "StreamSet",
    "default_cache_dir",
    "default_experiment",
    "dss_config",
    "figures",
    "load_layout",
    "load_profile",
    "load_program",
    "load_trace",
    "read_history",
    "run_id",
    "save_layout",
    "save_profile",
    "save_program",
    "save_trace",
    "table_payload",
    "quick_experiment",
    "uniprocessor_config",
    "write_benchmark_json",
]
