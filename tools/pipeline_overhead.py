#!/usr/bin/env python3
"""Bound the stage-graph runner's overhead on the fig04 quick sweep.

The `repro.pipeline` refactor routed every stage product access
through :class:`~repro.pipeline.runner.PipelineRunner`.  The refactor
contract says that indirection costs **at most 5 %** of the fig04
quick sweep's wall time; this script measures it directly instead of
trusting the claim:

1. Fully warm the quick experiment (binaries, profile, trace, the
   ``all``-combo layouts and streams), so nothing below is build cost.
2. Time the fig04 sweep end to end (best of ``--repeat`` runs) with
   ``PipelineRunner.artifact`` wrapped in a timer, so every runner
   lookup the sweep makes — the exact code the refactor added to the
   hot path — is accounted separately.
3. The overhead fraction is runner-bookkeeping seconds over sweep
   seconds for the fastest run.  ``--check`` exits 1 above the gate.

Run as ``python tools/pipeline_overhead.py [--check]`` from the repo root.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.harness import Experiment, quick_experiment  # noqa: E402
from repro.harness.figures import fig04_cache_sweep  # noqa: E402

#: Maximum tolerated runner share of the sweep wall time.
GATE_FRACTION = 0.05

COMBO = "all"
ENGINE = "batched"


def _warm(exp: Experiment) -> None:
    """Materialize every product the sweep touches."""
    exp.app, exp.kernel, exp.profile, exp.kernel_profile, exp.trace  # noqa: B018
    exp.streams(COMBO, scope="app")


def measure(repeat: int) -> tuple:
    """(sweep seconds, runner seconds, runner calls) for the best run."""
    exp = Experiment(quick_experiment().config)
    _warm(exp)

    runner = exp.pipeline
    inner = runner.artifact
    spent = {"calls": 0, "seconds": 0.0}

    def timed_artifact(key):
        start = time.perf_counter()
        artifact = inner(key)
        spent["seconds"] += time.perf_counter() - start
        spent["calls"] += 1
        return artifact

    runner.artifact = timed_artifact  # shadow the bound method
    try:
        best = None
        for _ in range(repeat):
            spent["calls"], spent["seconds"] = 0, 0.0
            start = time.perf_counter()
            fig04_cache_sweep(exp, COMBO, jobs=1, engine=ENGINE)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[0]:
                best = (elapsed, spent["seconds"], spent["calls"])
        return best
    finally:
        del runner.artifact


def main() -> int:
    """Measure, report, and (with ``--check``) gate the overhead."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 when runner overhead exceeds {GATE_FRACTION:.0%}",
    )
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    sweep_s, runner_s, calls = measure(args.repeat)
    fraction = runner_s / sweep_s if sweep_s else 0.0
    print(f"fig04 quick sweep (combo={COMBO}, engine={ENGINE}, jobs=1)")
    print(f"  sweep wall time   : {sweep_s:.4f} s (best of {args.repeat})")
    print(f"  runner bookkeeping: {runner_s:.6f} s over {calls} artifact() calls")
    print(f"  pipeline overhead : {fraction:.3%} of the sweep "
          f"(gate: <= {GATE_FRACTION:.0%})")
    if args.check and fraction > GATE_FRACTION:
        print("pipeline bench: FAIL")
        return 1
    print(f"pipeline bench: {'PASS' if args.check else 'ok (no --check)'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
