"""Miniature relational DBMS: the Oracle stand-in substrate."""

from repro.db.btree import BTree
from repro.db.buffer import BufferPool
from repro.db.engine import Engine, LockWait, Table
from repro.db.instrument import CallEvent, CallTrace, NullTrace, SaltCounter, TracedBufferPool
from repro.db.lock import LockManager, LockMode
from repro.db.pages import PAGE_SIZE, Page
from repro.db.rows import Column, RowCodec, int_col, pad_col
from repro.db.snapshot import DatabaseSnapshot, TableState
from repro.db.storage import HeapFile, PageStore, RID
from repro.db.txn import Transaction, TransactionManager, TxnState
from repro.db.wal import LogKind, LogManager, LogRecord, replay

__all__ = [
    "BTree",
    "BufferPool",
    "CallEvent",
    "CallTrace",
    "Column",
    "DatabaseSnapshot",
    "Engine",
    "HeapFile",
    "LockManager",
    "LockMode",
    "LockWait",
    "LogKind",
    "LogManager",
    "LogRecord",
    "NullTrace",
    "PAGE_SIZE",
    "Page",
    "PageStore",
    "RID",
    "RowCodec",
    "SaltCounter",
    "Table",
    "TableState",
    "TracedBufferPool",
    "Transaction",
    "TransactionManager",
    "TxnState",
    "int_col",
    "pad_col",
    "replay",
]
