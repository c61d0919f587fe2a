"""Persistence for the expensive pipeline products.

Generating the measurement trace is the costly step of every
experiment (two full system runs).  These helpers serialize traces and
profiles to ``.npz`` files so repeat studies — parameter sweeps, or
re-running the benchmark suite after analysis-only changes — skip the
regeneration.

File format: a single compressed ``.npz`` whose arrays are prefixed by
kind (``cpu{i}_blocks``, ``cpu{i}_pids``, ``data{i}_addr``, ...), plus
a metadata array.  Profiles store the block-count array and the edge
dictionary as parallel arrays.  Layouts serialize to JSON (unit names,
block ids, padding); compiled programs to stdlib pickle.

:class:`ArtifactStore` arranges these files into a content-addressed
cache directory keyed by ``ExperimentConfig.fingerprint()``, so warm
reruns of any figure skip codegen, profiling, and tracing entirely::

    <root>/<fingerprint>/app.pkl           compiled application
    <root>/<fingerprint>/kernel.pkl        compiled kernel
    <root>/<fingerprint>/profile-app.npz   Pixie profile (app)
    <root>/<fingerprint>/profile-kernel.npz
    <root>/<fingerprint>/trace.npz         measurement trace
    <root>/<fingerprint>/layout-<combo>.json
    <root>/<fingerprint>/klayout-<combo>.json
    <root>/<fingerprint>/database.snap     loaded TPC-B database

Artifacts whose build reads only part of the configuration (the
programs, the database) are also hard-linked under a *share key*
directory, ``<root>/<share key>/<name>``, so experiments that differ
elsewhere reuse one file (see :class:`~repro.pipeline.stage.Stage`).
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import pickle
import shutil
import uuid
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.db.snapshot import DatabaseSnapshot
from repro.errors import DatabaseError, SimulationError
from repro.execution.trace import CpuTrace, SystemTrace
from repro.ir import Binary, CodeUnit, Layout
from repro.pipeline.stage import SHARE_PREFIX
from repro.profiles import Profile

LOGGER = logging.getLogger("repro.harness")

PathLike = Union[str, pathlib.Path]


def save_trace(trace: SystemTrace, path: PathLike) -> None:
    """Serialize a SystemTrace to a compressed .npz file."""
    arrays = {
        "meta": np.array(
            [len(trace.cpus), trace.kernel_offset, trace.transactions],
            dtype=np.int64,
        )
    }
    for i, cpu in enumerate(trace.cpus):
        arrays[f"cpu{i}_blocks"] = cpu.blocks
        arrays[f"cpu{i}_pids"] = cpu.pids
        arrays[f"data{i}_addr"] = trace.data_addresses[i]
        arrays[f"data{i}_pos"] = trace.data_positions[i]
    np.savez_compressed(str(path), **arrays)


def load_trace(path: PathLike) -> SystemTrace:
    """Load a SystemTrace written by :func:`save_trace`."""
    with np.load(str(path)) as data:
        try:
            n_cpus, kernel_offset, transactions = data["meta"].tolist()
        except KeyError:
            raise SimulationError(f"{path}: not a serialized SystemTrace")
        cpus = []
        data_addresses = []
        data_positions = []
        for i in range(n_cpus):
            cpus.append(
                CpuTrace(
                    blocks=data[f"cpu{i}_blocks"],
                    pids=data[f"cpu{i}_pids"],
                )
            )
            data_addresses.append(data[f"data{i}_addr"])
            data_positions.append(data[f"data{i}_pos"])
    return SystemTrace(
        cpus=cpus,
        data_addresses=data_addresses,
        data_positions=data_positions,
        kernel_offset=int(kernel_offset),
        transactions=int(transactions),
    )


def save_profile(profile: Profile, path: PathLike) -> None:
    """Serialize a Profile to a compressed .npz file."""
    edges = profile.edge_counts
    src = np.array([edge[0] for edge in edges], dtype=np.int64)
    dst = np.array([edge[1] for edge in edges], dtype=np.int64)
    counts = np.array([edges[edge] for edge in edges], dtype=np.int64)
    np.savez_compressed(
        str(path),
        block_counts=profile.block_counts,
        edge_src=src,
        edge_dst=dst,
        edge_counts=counts,
    )


def load_profile(binary: Binary, path: PathLike) -> Profile:
    """Load a Profile written by :func:`save_profile`.

    The caller supplies the binary it belongs to; a block-count length
    mismatch (different generated binary) is rejected.
    """
    profile = Profile(binary)
    with np.load(str(path)) as data:
        block_counts = data["block_counts"]
        if len(block_counts) != binary.num_blocks:
            raise SimulationError(
                f"{path}: profile covers {len(block_counts)} blocks, "
                f"binary has {binary.num_blocks} (stale cache?)"
            )
        profile.block_counts = block_counts.astype(np.int64)
        for src, dst, count in zip(
            data["edge_src"].tolist(),
            data["edge_dst"].tolist(),
            data["edge_counts"].tolist(),
        ):
            profile.edge_counts[(src, dst)] = count
    return profile


def layout_to_dict(layout: Layout) -> Dict:
    """A Layout as a JSON-ready dict (the on-disk and wire shape)."""
    return {
        "name": layout.name,
        "alignment": layout.alignment,
        "units": [
            {
                "name": unit.name,
                "proc_name": unit.proc_name,
                "block_ids": list(unit.block_ids),
                "is_entry": unit.is_entry,
                "pad_before": unit.pad_before,
            }
            for unit in layout.units
        ],
    }


def layout_from_dict(payload: Dict, binary: Binary = None) -> Layout:
    """Rebuild a Layout from :func:`layout_to_dict` output.

    When ``binary`` is given the layout is validated against it; a
    layout for a different generated binary raises ``LayoutError``.
    """
    layout = Layout(
        units=[
            CodeUnit(
                name=unit["name"],
                proc_name=unit["proc_name"],
                block_ids=tuple(unit["block_ids"]),
                is_entry=unit["is_entry"],
                pad_before=unit["pad_before"],
            )
            for unit in payload["units"]
        ],
        alignment=payload["alignment"],
        name=payload["name"],
    )
    if binary is not None:
        layout.validate_against(binary)
    return layout


def save_layout(layout: Layout, path: PathLike) -> None:
    """Serialize a Layout to JSON."""
    pathlib.Path(path).write_text(json.dumps(layout_to_dict(layout)))


def load_layout(path: PathLike, binary: Binary = None) -> Layout:
    """Load a Layout written by :func:`save_layout`.

    When ``binary`` is given the layout is validated against it; a
    layout for a different generated binary raises ``LayoutError``
    (which cache readers treat as a miss).
    """
    payload = json.loads(pathlib.Path(path).read_text())
    return layout_from_dict(payload, binary)


def save_program(program, path: PathLike) -> None:
    """Serialize a CompiledProgram (binary + routine specs) to pickle."""
    with open(path, "wb") as handle:
        pickle.dump(program, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_program(path: PathLike):
    """Load a CompiledProgram written by :func:`save_program`."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def save_snapshot(snapshot: DatabaseSnapshot, path: PathLike) -> None:
    """Serialize a loaded-database snapshot (checksummed bytes)."""
    pathlib.Path(path).write_bytes(snapshot.to_bytes())


def load_snapshot(
    path: PathLike, key: Optional[Tuple[int, ...]] = None
) -> DatabaseSnapshot:
    """Load a snapshot written by :func:`save_snapshot`.

    A truncated or damaged file raises; so does a snapshot whose
    :attr:`~repro.db.snapshot.DatabaseSnapshot.key` differs from the
    expected ``key`` (cache readers treat both as a miss).
    """
    snapshot = DatabaseSnapshot.from_bytes(pathlib.Path(path).read_bytes())
    if key is not None and snapshot.key != tuple(key):
        raise DatabaseError(
            f"{path}: database snapshot of {snapshot.key}, expected {tuple(key)}"
        )
    return snapshot


def default_cache_dir() -> pathlib.Path:
    """The default artifact cache location.

    ``$REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro``
    (``~/.cache/repro``).
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override).expanduser()
    base = os.environ.get("XDG_CACHE_HOME") or "~/.cache"
    return pathlib.Path(base).expanduser() / "repro"


@dataclass
class StoreInfo:
    """Summary of an :class:`ArtifactStore`'s contents."""

    root: pathlib.Path
    experiments: int
    files: int
    total_bytes: int


class ArtifactStore:
    """Content-addressed, on-disk cache for pipeline artifacts.

    Entries are keyed by ``(fingerprint, name)`` where the fingerprint
    is :meth:`ExperimentConfig.fingerprint` and the name identifies the
    stage product (``trace.npz``, ``layout-all.json``, ...).  The store
    only provides paths and bookkeeping; serialization stays in the
    module-level ``save_*``/``load_*`` helpers so artifacts remain
    readable without a store.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = pathlib.Path(root).expanduser()

    def path(self, fingerprint: str, name: str) -> pathlib.Path:
        """Where the artifact for ``(fingerprint, name)`` lives."""
        return self.root / fingerprint / name

    def has(self, fingerprint: str, name: str) -> bool:
        """True when the artifact exists in the cache."""
        return self.path(fingerprint, name).is_file()

    def prepare(self, fingerprint: str, name: str) -> pathlib.Path:
        """The artifact path, with its directory created."""
        path = self.path(fingerprint, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def load(self, fingerprint: str, name: str, loader):
        """Load one artifact through ``loader(path)``.

        Returns None on a miss; any load failure (missing, corrupt,
        stale) degrades to a miss so callers recompute.  Hits, misses,
        errors, and bytes read feed the ``store.*`` metrics
        (:mod:`repro.obs`).
        """
        path = self.path(fingerprint, name)
        if not path.is_file():
            obs.counter("store.misses").inc()
            return None
        try:
            obj = loader(path)
        except Exception as exc:  # corrupt/stale entries must not kill runs
            LOGGER.warning(
                "cache entry %s unreadable (%s); recomputing", path, exc
            )
            obs.counter("store.errors").inc()
            obs.counter("store.misses").inc()
            return None
        obs.counter("store.hits").inc()
        obs.counter("store.bytes_read").inc(path.stat().st_size)
        return obj

    def save(self, fingerprint: str, name: str, obj, saver) -> int:
        """Persist one artifact through ``saver(obj, path)``.

        The write is **atomic**: the saver writes a same-directory
        temporary file which is then ``os.replace``d over the final
        path.  Readers (and the server's persistent cache tier) never
        observe a torn artifact, and concurrent writers of the same
        key each land a complete file — last replace wins.

        Returns bytes written (0 when the write failed, e.g. on a
        read-only cache directory).  Writes and bytes feed the
        ``store.*`` metrics.
        """
        path = self.path(fingerprint, name)
        # The temp name *ends with* the real name so suffix-sniffing
        # savers (np.savez appends ".npz" to unsuffixed paths) behave
        # identically on the temporary file.
        tmp = path.with_name(
            f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}-{path.name}"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            saver(obj, tmp)
            size = tmp.stat().st_size
            os.replace(tmp, path)
        except OSError as exc:  # read-only cache dir etc.
            LOGGER.warning("cannot persist %s (%s); continuing uncached", name, exc)
            return 0
        finally:
            tmp.unlink(missing_ok=True)
        obs.counter("store.writes").inc()
        obs.counter("store.bytes_written").inc(size)
        return size

    def link(self, source: str, target: str, name: str) -> bool:
        """Hard-link the ``(source, name)`` artifact as ``(target,
        name)``, replacing any file there; returns False when the link
        cannot be made (nothing to link, or a filesystem without hard
        links) -- the caller then treats the artifact as not shared."""
        src, dst = self.path(source, name), self.path(target, name)
        tmp = dst.with_name(f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}-{name}")
        try:
            dst.parent.mkdir(parents=True, exist_ok=True)
            os.link(src, tmp)
            os.replace(tmp, dst)
        except OSError:
            return False
        finally:
            tmp.unlink(missing_ok=True)
        return True

    def info(self) -> StoreInfo:
        """Count cached experiments, files, and bytes."""
        experiments = files = total = 0
        if self.root.is_dir():
            for entry in sorted(self.root.iterdir()):
                # Share-key directories only hold links to files that
                # an experiment directory already counts.
                if not entry.is_dir() or entry.name.startswith(SHARE_PREFIX):
                    continue
                experiments += 1
                for artifact in entry.iterdir():
                    if artifact.is_file():
                        files += 1
                        total += artifact.stat().st_size
        return StoreInfo(
            root=self.root, experiments=experiments,
            files=files, total_bytes=total,
        )

    def clear(self) -> int:
        """Delete every cached artifact; returns experiments removed."""
        removed = 0
        if self.root.is_dir():
            for entry in list(self.root.iterdir()):
                if entry.is_dir():
                    shutil.rmtree(entry)
                    removed += not entry.name.startswith(SHARE_PREFIX)
        return removed

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"
