#!/usr/bin/env python3
"""Prove the stage-graph runner replays caches written by pre-pipeline code.

The `repro.pipeline` refactor promised cache-key compatibility: the
runner memoizes under the historical cache-key scheme -- the same
``(experiment fingerprint, artifact name)`` keys the pre-pipeline
harness used -- so artifact stores written before the refactor replay
warm through the new graph.  The old code is gone from the tree, so this script
recreates its footprint exactly:

``write-legacy``
    Build every persistent stage product of the quick experiment with
    the store *detached*, then write the artifacts with raw
    ``ArtifactStore.save`` calls — the very calls pre-pipeline
    ``Experiment.persist()`` made, with the pre-pipeline artifact
    names, and zero :class:`~repro.pipeline.runner.PipelineRunner`
    involvement.  The ``base`` and ``all`` layouts of the app and the
    kernel under every profile source are written the same way, under
    the names in :data:`LAYOUTS` (the kernel ``base`` layout is never
    persisted).

``replay``
    Open a fresh experiment on that store and touch every persistent
    stage through the pipeline, the layouts through
    ``Experiment.layout``/``kernel_layout``.  Exit 0 only if **100 % of
    the stage records are cache hits** (no miss, no off) and the
    runner's ``status()`` sees every persistent stage ``ready``.

CI runs the pair back to back in the ``pipeline-equivalence`` job and
follows up with figure/scenario output comparisons.
Run as ``python tools/verify_pipeline_replay.py <mode> --cache-dir DIR``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.harness import Experiment, quick_experiment  # noqa: E402
from repro.harness.store import (  # noqa: E402
    ArtifactStore,
    save_layout,
    save_profile,
    save_program,
    save_trace,
)

#: Stage records a warm replay of the persistent products must produce.
PERSISTENT_STAGES = ("codegen", "profile", "trace", "layout")

#: The persisted layouts, pinned by artifact name:
#: ``(kernel, profile source, combo, artifact name)``.
LAYOUTS = (
    (False, "measured", "base", "layout-base.json"),
    (False, "measured", "all", "layout-all.json"),
    (False, "static", "base", "layout-static-base.json"),
    (False, "static", "all", "layout-static-all.json"),
    (False, "hybrid", "base", "layout-hybrid-base.json"),
    (False, "hybrid", "all", "layout-hybrid-all.json"),
    (True, "measured", "all", "klayout-all.json"),
    (True, "static", "all", "klayout-static-all.json"),
    (True, "hybrid", "all", "klayout-hybrid-all.json"),
)


def _fresh_experiment(store=None) -> Experiment:
    """A quick-scale experiment with its own runner and run log.

    ``quick_experiment()`` is ``lru_cache``d — reusing the singleton
    would carry memoized artifacts between the write and replay halves
    and fake the result.
    """
    return Experiment(quick_experiment().config, store=store)


def write_legacy(store: ArtifactStore) -> int:
    """Populate the store exactly as pre-pipeline code did."""
    exp = _fresh_experiment(store=None)
    fingerprint = exp.fingerprint
    artifacts = (
        ("app.pkl", exp.app, save_program),
        ("kernel.pkl", exp.kernel, save_program),
        ("profile-app.npz", exp.profile, save_profile),
        ("profile-kernel.npz", exp.kernel_profile, save_profile),
        ("trace.npz", exp.trace, save_trace),
    ) + tuple(
        (
            name,
            exp.optimizer_for(source, kernel=kernel).layout(combo),
            save_layout,
        )
        for kernel, source, combo, name in LAYOUTS
    )
    total = 0
    for name, obj, saver in artifacts:
        size = store.save(fingerprint, name, obj, saver)
        total += size
        print(f"  {name:<24} {size:>9} bytes")
    print(
        f"legacy cache written: {len(artifacts)} artifacts, "
        f"{total} bytes under {fingerprint}"
    )
    return 0


def replay(store: ArtifactStore) -> int:
    """Touch every persistent stage; fail unless every record hits."""
    exp = _fresh_experiment(store=store)

    ready = {
        row.key: row.state
        for row in exp.pipeline.status()
        if row.key.split(":", 1)[0] in PERSISTENT_STAGES
    }
    stale = {key: state for key, state in ready.items() if state != "ready"}
    if stale:
        print(f"replay: stages not ready in the store: {stale}")
        return 1

    exp.app, exp.kernel, exp.profile, exp.kernel_profile, exp.trace  # noqa: B018
    for kernel, source, combo, _name in LAYOUTS:
        (exp.kernel_layout if kernel else exp.layout)(combo, source)

    states = exp.runlog.cache_states()
    hits = states.count("hit")
    print(f"stage records: {len(states)} total, {hits} hit")
    for record in exp.runlog.records:
        print(f"  {record.describe()}")
    if not exp.runlog.all_hits(*PERSISTENT_STAGES):
        print("replay: a persistent stage was rebuilt instead of replayed")
        return 1
    if hits != len(states):
        print(f"replay: non-hit stage records: {sorted(set(states) - {'hit'})}")
        return 1
    print(
        f"pipeline replay: 100% stage hits "
        f"({hits}/{len(states)} records) on a pre-pipeline cache"
    )
    return 0


def main() -> int:
    """Parse the mode and cache dir, run it, return an exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("write-legacy", "replay"))
    parser.add_argument("--cache-dir", required=True)
    args = parser.parse_args()
    store = ArtifactStore(args.cache_dir)
    if args.mode == "write-legacy":
        return write_legacy(store)
    return replay(store)


if __name__ == "__main__":
    raise SystemExit(main())
