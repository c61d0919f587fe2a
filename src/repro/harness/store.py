"""Persistence for the expensive pipeline products.

Generating the measurement trace is the costly step of every
experiment (two full system runs).  These helpers serialize traces and
profiles to ``.npz`` files so repeat studies — parameter sweeps, or
re-running ``repro figure`` after analysis-only changes — skip the
regeneration.

File format: a single compressed ``.npz`` whose arrays are prefixed by
kind (``cpu{i}_blocks``, ``cpu{i}_pids``, ``data{i}_addr``, ...), plus
a metadata array.  Profiles store the block-count array and the edge
dictionary as parallel arrays.  Layouts serialize to JSON (unit names,
block ids, padding); compiled programs and database snapshots to
checksummed pickles (:mod:`repro.checksum`).

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
The store also holds one in-memory value per share-key file
(:meth:`ArtifactStore.hold` / :meth:`ArtifactStore.recall`): every
experiment over the same store gets the same program and database
objects, unpickled once, for as long as that file keeps its identity.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import shutil
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro import checksum, obs
from repro.db.snapshot import DatabaseSnapshot
from repro.errors import DatabaseError, IRError, SimulationError
from repro.execution.trace import CpuTrace, SystemTrace
from repro.ir import Binary, CodeUnit, Layout
from repro.pipeline.stage import SHARE_PREFIX
from repro.profiles import Profile

LOGGER = logging.getLogger("repro.harness")

PathLike = Union[str, pathlib.Path]

#: Tag of a compiled-program file; bump the digit when its layout changes.
_PROGRAM_MAGIC = b"REPROPG1"


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
    """Serialize a CompiledProgram (binary + routine specs) to a
    checksummed pickle."""
    pathlib.Path(path).write_bytes(checksum.dumps(_PROGRAM_MAGIC, program))


def load_program(path: PathLike):
    """Load a CompiledProgram written by :func:`save_program`; a
    damaged or unframed file raises ``IRError`` (a cache miss)."""
    data = pathlib.Path(path).read_bytes()
    return checksum.loads(_PROGRAM_MAGIC, data, IRError, "compiled program")


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


#: A file written less than this long ago may be rewritten within the
#: same tick of the file-system clock (1-2 s on some file systems)
#: without its (inode, size, mtime) changing, so a value held for it
#: is checked against the file's digest as well.
_RACY_NS = 2_000_000_000


def _file_identity(path: pathlib.Path) -> Tuple[int, int, int]:
    stat = path.stat()
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


def _file_digest(path: pathlib.Path) -> bytes:
    return hashlib.sha1(path.read_bytes()).digest()


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

    Values loaded or saved under a share key are also held in memory,
    one per ``(share key, name)``, so every pipeline over this store
    shares one object (see :meth:`recall`).
    """

    def __init__(self, root: PathLike) -> None:
        self.root = pathlib.Path(root).expanduser()
        #: (share key, name) -> (file identity, digest or None, value).
        self._held: Dict[Tuple[str, str], Tuple[Any, ...]] = {}

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
        stale), or a loader returning None to refuse the entry, degrades
        to a miss so callers recompute.  Hits, misses,
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
        if obj is None:  # the loader refused the entry
            obs.counter("store.misses").inc()
            return None
        obs.counter("store.hits").inc()
        obs.counter("store.bytes_read").inc(path.stat().st_size)
        return obj

    def hold(self, key: str, name: str, value, fingerprint: str) -> None:
        """Hold ``value``, just read from or written to ``(fingerprint,
        name)``, as the in-memory copy of the ``(key, name)`` file.

        :meth:`recall` serves it while ``(key, name)`` is that same
        file, unchanged; a file that cannot be read is not held."""
        path = self.path(fingerprint, name)
        try:
            identity = _file_identity(path)
            digest = None
            if time.time_ns() - identity[2] < _RACY_NS:
                digest = _file_digest(path)
        except OSError:
            return
        self._held[(key, name)] = (identity, digest, value)

    def recall(self, key: str, name: str):
        """The value held for ``(key, name)``, or None.

        A file whose ``(inode, size, mtime)`` -- or, when it was held
        under ``_RACY_NS`` after its last write, whose digest -- differs
        from the held one (replaced, truncated or rewritten in place) is
        a miss and drops the value, so the caller reads and checks the
        file again.  Hits count ``store.shared_hits``."""
        entry = self._held.get((key, name))
        if entry is None:
            return None
        identity, digest, value = entry
        path = self.path(key, name)
        try:
            same = _file_identity(path) == identity and (
                digest is None or _file_digest(path) == digest
            )
        except OSError:
            same = False
        if not same:
            self._held.pop((key, name), None)
            return None
        obs.counter("store.shared_hits").inc()
        return value

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
        """Delete every cached artifact (and every held value); returns
        experiments removed."""
        self._held.clear()
        removed = 0
        if self.root.is_dir():
            for entry in list(self.root.iterdir()):
                if entry.is_dir():
                    shutil.rmtree(entry)
                    removed += not entry.name.startswith(SHARE_PREFIX)
        return removed

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"
