"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload matrix-cold --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
ledger instead (see ``perfbench/README.md``).  The last line of
standard output is the result object; the exit code is 0 only when
every correctness check passed.  The benchmark runs the sources under
``src/`` of the checkout it lives in and keeps its scratch files under
``.bench_work/`` there.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

WORKLOADS = ("matrix-cold", "sim-warm", "serve-mix")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no sources under {ROOT / 'src'}; run it "
                         "from a full checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import matrix_cold, serve_mix, sim_warm
    from perfbench.common import Context, stop_children

    work = ROOT / ".bench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    ctx = Context(
        root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
    )
    runner = {
        "matrix-cold": matrix_cold.run,
        "sim-warm": sim_warm.run,
        "serve-mix": serve_mix.run,
    }[args.workload]
    try:
        outcome = runner(ctx)
    finally:
        gc.collect()  # finalizers that unregister shared memory run first
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
    for problem in outcome.problems:
        sys.stderr.write(f"perfbench: {problem}\n")
    print(json.dumps(outcome.document(ctx.trace)), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
