"""Record the ``sim-warm`` reference tables at the default seed.

Usage (from the root of a checkout)::

    python3 perfbench/record_reference.py

Runs fig06 and fig14 serially on the quick experiment (the classic LRU,
L2 and iTLB engines) and writes ``perfbench/reference/sim_warm.json``.
Re-record only when a change is meant to alter those tables.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.harness.experiment import Experiment, quick_experiment
    from repro.harness.store import ArtifactStore
    from perfbench.sim_warm import REFERENCE, run_figures

    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        exp = Experiment(quick_experiment().config, store=ArtifactStore(scratch))
        tables = run_figures(exp, engine="classic", jobs=1)[0]
    document = {name: tables[name] for name in ("fig06", "fig14")}
    (ROOT / REFERENCE).write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
