"""Machine-readable benchmark results.

``repro figure --save-json DIR`` writes every table it renders through
:func:`write_benchmark_json` as ``BENCH_<name>.json`` with a small
stable schema, so CI jobs and notebooks can assert on numbers instead
of parsing aligned columns (``repro report`` and ``repro bench-diff``
read them back).

Schema v2 adds two observability-driven sections:

``run``
    Provenance for the writing process: a run id (``REPRO_RUN_ID`` or
    a fresh random one), ISO-8601 timestamp, and unix time.  Every
    ``BENCH_*.json`` written by the same process shares one run id.
``metrics``
    A snapshot of the in-process :mod:`repro.obs` metric registry at
    write time (omitted when no metrics were recorded), so cache
    simulator counters, layout decision counts and pipeline stage
    timings travel with the numbers they explain.

Because ``BENCH_<name>.json`` is overwritten in place on every run,
each write also *appends* the full document as one line to
``BENCH_<name>.history.jsonl`` keyed by run id — the trail of past
runs survives re-runs and feeds regression analysis.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import time
import uuid
from typing import Dict, Optional, Union

from repro import obs
from repro.harness.figures import Table

PathLike = Union[str, pathlib.Path]

#: Bump when the JSON document shape changes.
RESULTS_SCHEMA_VERSION = 2

_RUN_ID: Optional[str] = None


def run_id() -> str:
    """The stable run id for this process.

    ``REPRO_RUN_ID`` wins when set (CI passes the pipeline id so all
    artifacts of one workflow correlate); otherwise a random 12-hex-char
    id is minted once per process.
    """
    global _RUN_ID
    env = os.environ.get("REPRO_RUN_ID")
    if env:
        return env
    if _RUN_ID is None:
        _RUN_ID = uuid.uuid4().hex[:12]
    return _RUN_ID


def run_info() -> Dict:
    """The ``run`` provenance section for a results document."""
    now = time.time()
    stamp = datetime.datetime.fromtimestamp(now, datetime.timezone.utc)
    return {
        "id": run_id(),
        "timestamp": stamp.isoformat(timespec="seconds"),
        "unix_time": round(now, 3),
    }


def table_payload(table: Table) -> Dict:
    """A benchmark :class:`~repro.harness.figures.Table` as plain data."""
    return {
        "title": table.title,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
        "notes": list(table.notes),
    }


def write_benchmark_json(
    name: str,
    payload: Union[Table, Dict],
    results_dir: PathLike,
    extra: Optional[Dict] = None,
    history: bool = True,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``results_dir``.

    ``payload`` is either a :class:`~repro.harness.figures.Table`
    (converted via :func:`table_payload`) or an already-structured
    dict (e.g. an online report's ``to_dict()``).  ``extra`` keys are
    merged in at the top level.  The document carries a ``run``
    provenance section and, when the :mod:`repro.obs` registry is
    non-empty, a ``metrics`` snapshot.  With ``history`` (the
    default), the document is also appended as one JSON line to
    ``BENCH_<name>.history.jsonl``, so overwriting the latest result
    never loses earlier runs.  Returns the written path.
    """
    if isinstance(payload, Table):
        payload = table_payload(payload)
    document = {"schema": RESULTS_SCHEMA_VERSION, "name": name}
    document.update(payload)
    if extra:
        document.update(extra)
    document["run"] = run_info()
    metrics = obs.registry().snapshot()
    if metrics:
        document["metrics"] = metrics
    results_dir = pathlib.Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    if history:
        history_path = results_dir / f"BENCH_{name}.history.jsonl"
        with history_path.open("a") as fh:
            fh.write(json.dumps(document, separators=(",", ":")) + "\n")
    return path


def read_history(name: str, results_dir: PathLike) -> list:
    """All recorded runs of ``name``, oldest first.

    Reads ``BENCH_<name>.history.jsonl``; a missing file is an empty
    history, a corrupt line raises :class:`ValueError` naming the line.
    """
    path = pathlib.Path(results_dir) / f"BENCH_{name}.history.jsonl"
    if not path.is_file():
        return []
    runs = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            runs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: corrupt history line") from exc
    return runs
