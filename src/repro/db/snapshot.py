"""Snapshots of a loaded database: load once, restore many times.

Every system run starts from a freshly loaded database, and runs that
share a scale, a buffer-pool capacity and a B+tree order load the
identical database.  :class:`DatabaseSnapshot` captures everything a
later run reads from a quiescent :class:`~repro.db.engine.Engine` —
page images, buffer-pool residency and LRU order, the store and pool
counters, the WAL position, the catalog (heap page ids, B+tree roots
and order) — plus the trace's salt counter, and restores it into an
empty engine.  A restored engine behaves exactly like the loaded one:
the same pages hit and miss, and the next traced operation draws the
same salt.

The byte form (:meth:`DatabaseSnapshot.to_bytes`) is explicit: a
checksummed pickle (:mod:`repro.checksum`) of plain tuples, ints and
bytes — never engine objects.  A truncated, bit-flipped or foreign file fails
:meth:`DatabaseSnapshot.from_bytes` with :class:`~repro.errors.DatabaseError`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Optional, Tuple

from repro import checksum
from repro.db.btree import BTree
from repro.db.buffer import _Frame
from repro.db.engine import Engine, Table
from repro.db.pages import Page
from repro.db.rows import Column, RowCodec
from repro.db.storage import HeapFile
from repro.errors import DatabaseError

#: File tag; bump the digit when the field layout changes.
_MAGIC = b"REPRODB1"


@dataclass(frozen=True)
class TableState:
    """One catalog entry: schema, heap pages and the index root."""

    name: str
    #: ``(name, kind, width)`` per column.
    columns: Tuple[Tuple[str, str, int], ...]
    key_column: str
    heap_pages: Tuple[int, ...]
    insert_hint: Optional[int]
    #: ``(name, root page id, height, order)``, or None when unindexed.
    index: Optional[Tuple[str, int, int, int]]


@dataclass(frozen=True)
class DatabaseSnapshot:
    """A quiescent engine's state plus the trace salt counter."""

    #: What the loader read to build the database (TPC-B: branches,
    #: accounts and tellers per branch); opaque to this module.
    scale: Tuple[int, ...]
    pool_capacity: int
    btree_order: int
    #: ``CallTrace.salts`` after the load.
    salt: int
    #: Store images in page-id order: ``(page id, image)``.
    pages: Tuple[Tuple[int, bytes], ...]
    next_page_id: int
    #: ``(reads, writes)`` of the page store.
    store_counters: Tuple[int, int]
    #: Resident frames, least recently used first: ``(page id, pins,
    #: dirty, image)``; ``image`` is None when it equals the store's.
    frames: Tuple[Tuple[int, int, bool, Optional[bytes]], ...]
    #: ``(hits, misses, evictions)`` of the buffer pool.
    pool_counters: Tuple[int, int, int]
    #: ``(next lsn, flushed lsn, flushes, group sizes, pending commits)``.
    wal: Tuple[int, int, int, Tuple[int, ...], int]
    #: ``(next txn id, committed, aborted)``.
    txn_counters: Tuple[int, int, int]
    #: ``(grants, waits, deadlocks)`` of the lock manager.
    lock_counters: Tuple[int, int, int]
    tables: Tuple[TableState, ...]
    #: Statement-cache entries, sorted.
    statements: Tuple[Tuple[str, str], ...]

    @property
    def key(self) -> Tuple[int, ...]:
        """Everything the load read: ``scale + (pool, order)``."""
        return tuple(self.scale) + (self.pool_capacity, self.btree_order)

    # -- capture / restore ---------------------------------------------------

    @classmethod
    def capture(
        cls, engine: Engine, *, salt: int, scale: Tuple[int, ...] = ()
    ) -> "DatabaseSnapshot":
        """Snapshot a quiescent engine (no open transaction, no held
        lock, an empty WAL)."""
        if engine.txns.active or engine.locks._held_by_txn:
            raise DatabaseError("snapshot of a database with open transactions")
        log = engine.log
        if log._buffer or log._flushed:
            raise DatabaseError("snapshot of a database with WAL records")
        store, pool = engine.store, engine.pool
        images = store._images
        frames = []
        for page_id, frame in pool._frames.items():
            image = bytes(frame.page.buf)
            frames.append((
                page_id, frame.pins, frame.dirty,
                None if image == images.get(page_id) else image,
            ))
        tables = tuple(
            TableState(
                name=table.name,
                columns=tuple(
                    (col.name, col.kind, col.width) for col in table.codec.columns
                ),
                key_column=table.key_column,
                heap_pages=tuple(table.heap.page_ids),
                insert_hint=table.heap._insert_hint,
                index=None if table.index is None else (
                    table.index.name, table.index.root_page_id,
                    table.index.height, table.index.order,
                ),
            )
            for table in engine.tables.values()
        )
        return cls(
            scale=tuple(scale),
            pool_capacity=pool.capacity,
            btree_order=engine._btree_order,
            salt=salt,
            pages=tuple(sorted(images.items())),
            next_page_id=store._next_page_id,
            store_counters=(store.reads, store.writes),
            frames=tuple(frames),
            pool_counters=(pool.hits, pool.misses, pool.evictions),
            wal=(
                log._next_lsn, log.flushed_lsn, log.flushes,
                tuple(log.group_sizes), log._pending_commits,
            ),
            txn_counters=(
                engine.txns._next_id, engine.txns.committed, engine.txns.aborted
            ),
            lock_counters=(
                engine.locks.grants, engine.locks.waits, engine.locks.deadlocks
            ),
            tables=tables,
            statements=tuple(sorted(engine._stmt_cache)),
        )

    def restore(self, engine: Engine) -> None:
        """Load this snapshot into a new, empty engine of the same
        pool capacity and B+tree order.  The salt counter is the
        caller's to apply (``CallTrace(salts=snapshot.salt)``)."""
        if (engine.pool.capacity, engine._btree_order) != (
            self.pool_capacity, self.btree_order
        ):
            raise DatabaseError(
                f"snapshot of pool {self.pool_capacity}/order "
                f"{self.btree_order} restored into pool "
                f"{engine.pool.capacity}/order {engine._btree_order}"
            )
        if engine.tables or engine.store.num_pages:
            raise DatabaseError("restore needs an empty engine")
        store, pool = engine.store, engine.pool
        store._images = dict(self.pages)
        store._next_page_id = self.next_page_id
        store.reads, store.writes = self.store_counters
        for page_id, pins, dirty, image in self.frames:
            page = Page(page_id, store._images[page_id] if image is None else image)
            pool._frames[page_id] = _Frame(page, pins, dirty)
        pool.hits, pool.misses, pool.evictions = self.pool_counters
        log = engine.log
        log._next_lsn, log.flushed_lsn, log.flushes, groups, pending = self.wal
        log.group_sizes = list(groups)
        log._pending_commits = pending
        txns = engine.txns
        txns._next_id, txns.committed, txns.aborted = self.txn_counters
        locks = engine.locks
        locks.grants, locks.waits, locks.deadlocks = self.lock_counters
        for state in self.tables:
            heap = HeapFile(state.name, pool)
            heap.page_ids = list(state.heap_pages)
            heap._insert_hint = state.insert_hint
            index = None
            if state.index is not None:
                name, root, height, order = state.index
                index = BTree(name, pool, order, root_page_id=root, height=height)
            engine.tables[state.name] = Table(
                name=state.name,
                codec=RowCodec(state.name, [Column(*col) for col in state.columns]),
                heap=heap,
                key_column=state.key_column,
                index=index,
            )
        engine._stmt_cache = set(self.statements)

    # -- bytes ----------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """A checksummed pickle of plain tuples."""
        state = tuple(
            tuple(astuple(table) for table in self.tables)
            if f.name == "tables" else getattr(self, f.name)
            for f in fields(self)
        )
        return checksum.dumps(_MAGIC, state)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DatabaseSnapshot":
        """Parse :meth:`to_bytes` output; any damage raises
        :class:`~repro.errors.DatabaseError`."""
        state = checksum.loads(_MAGIC, data, DatabaseError, "database snapshot")
        names = [f.name for f in fields(cls)]
        if not isinstance(state, tuple) or len(state) != len(names):
            raise DatabaseError("database snapshot has the wrong shape")
        values = dict(zip(names, state))
        values["tables"] = tuple(TableState(*table) for table in values["tables"])
        return cls(**values)
