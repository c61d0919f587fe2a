"""B+tree index over buffered pages.

Each node occupies one page, serialized as the page's single record.
Keys are signed 64-bit ints; leaf values are RIDs.  Leaves are linked
for ordered scans.  Deletion removes the key from its leaf without
rebalancing (adequate for the workloads here and a common production
simplification).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Callable, List, Optional, Tuple

from repro.errors import DatabaseError, DuplicateKeyError, KeyNotFoundError
from repro.db.storage import RID

_NODE_HEADER = struct.Struct("<BHI")  # is_leaf, nkeys, next_leaf
_KEY = struct.Struct("<q")
_LEAF_VAL = struct.Struct("<IH")  # page_id, slot
_CHILD = struct.Struct("<I")


@lru_cache(maxsize=1024)
def _codec(fmt: str) -> struct.Struct:
    """The compiled struct for a whole key, RID or child array."""
    return struct.Struct(fmt)


@dataclass
class _Node:
    page_id: int
    is_leaf: bool
    keys: List[int] = field(default_factory=list)
    #: Leaf: RIDs parallel to keys.  Internal: child page ids, one more
    #: than keys (children[i] covers keys < keys[i]).
    values: List = field(default_factory=list)
    children: List[int] = field(default_factory=list)
    next_leaf: int = 0

    def to_bytes(self) -> bytes:
        n = len(self.keys)
        parts = [
            _NODE_HEADER.pack(1 if self.is_leaf else 0, n, self.next_leaf),
            _codec(f"<{n}q").pack(*self.keys),
        ]
        if self.is_leaf:
            rids = _codec("<" + "IH" * len(self.values))
            parts.append(rids.pack(*chain.from_iterable(self.values)))
        else:
            parts.append(_codec(f"<{len(self.children)}I").pack(*self.children))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, page_id: int, data: bytes) -> "_Node":
        is_leaf, nkeys, next_leaf = _NODE_HEADER.unpack_from(data, 0)
        pos = _NODE_HEADER.size
        keys = list(_codec(f"<{nkeys}q").unpack_from(data, pos))
        pos += nkeys * _KEY.size
        node = cls(page_id=page_id, is_leaf=bool(is_leaf), keys=keys, next_leaf=next_leaf)
        if node.is_leaf:
            flat = _codec("<" + "IH" * nkeys).unpack_from(data, pos)
            node.values = list(zip(flat[0::2], flat[1::2]))
        else:
            node.children = list(_codec(f"<{nkeys + 1}I").unpack_from(data, pos))
        return node


class BTree:
    """A B+tree index: int key -> RID."""

    def __init__(self, name: str, pool, order: int = 128) -> None:
        """Args:
        name: Index name (for diagnostics).
        pool: Buffer pool.
        order: Maximum keys per node before it splits.
        """
        if order < 4:
            raise DatabaseError(f"btree order must be >= 4, got {order}")
        self.name = name
        self.pool = pool
        self.order = order
        # Nodes are serialized at a fixed size (the worst case is a
        # transiently overfull node of order+1 keys) so in-place page
        # updates never need to relocate the cell.
        max_keys = order + 1
        leaf_max = _NODE_HEADER.size + max_keys * (_KEY.size + _LEAF_VAL.size)
        internal_max = _NODE_HEADER.size + max_keys * _KEY.size + (max_keys + 1) * _CHILD.size
        self._node_bytes = max(leaf_max, internal_max)
        from repro.db.pages import PAGE_SIZE, HEADER_SIZE, SLOT_SIZE

        if self._node_bytes > PAGE_SIZE - HEADER_SIZE - SLOT_SIZE:
            raise DatabaseError(
                f"btree order {order} needs {self._node_bytes}-byte nodes, "
                f"too large for one page"
            )
        root = _Node(page_id=0, is_leaf=True)
        page = pool.new_page()
        root.page_id = page.page_id
        page.insert(self._pack(root))
        pool.unpin(page.page_id, dirty=True)
        self.root_page_id = root.page_id
        self.height = 1
        #: Hook fired after each descent: f(levels_visited, found).
        self.on_descent: Optional[Callable[[int, bool], None]] = None

    # -- node I/O ------------------------------------------------------------

    def _pack(self, node: _Node) -> bytes:
        """Serialize a node padded to the fixed node size."""
        data = node.to_bytes()
        return data + b"\x00" * (self._node_bytes - len(data))

    def _load(self, page_id: int) -> _Node:
        page = self.pool.fetch(page_id)
        try:
            return _Node.from_bytes(page_id, page.read(0))
        finally:
            self.pool.unpin(page_id, dirty=False)

    def _save(self, node: _Node) -> None:
        page = self.pool.fetch(node.page_id)
        try:
            page.update(0, self._pack(node))
        finally:
            self.pool.unpin(node.page_id, dirty=True)

    def _new_node(self, is_leaf: bool) -> _Node:
        page = self.pool.new_page()
        node = _Node(page_id=page.page_id, is_leaf=is_leaf)
        page.insert(self._pack(node))
        self.pool.unpin(page.page_id, dirty=True)
        return node

    # -- search ----------------------------------------------------------------

    def search(self, key: int) -> Optional[RID]:
        """Point lookup; returns the RID or None."""
        node = self._load(self.root_page_id)
        levels = 1
        while not node.is_leaf:
            idx = bisect_right(node.keys, key)
            node = self._load(node.children[idx])
            levels += 1
        idx = bisect_left(node.keys, key)
        found = idx < len(node.keys) and node.keys[idx] == key
        if self.on_descent is not None:
            self.on_descent(levels, found)
        return tuple(node.values[idx]) if found else None

    def lookup(self, key: int) -> RID:
        """Point lookup that raises on a miss."""
        rid = self.search(key)
        if rid is None:
            raise KeyNotFoundError(f"index {self.name!r}: key {key} not found")
        return rid

    # -- insert ------------------------------------------------------------------

    def insert(self, key: int, rid: RID) -> None:
        """Insert a unique key."""
        split = self._insert_into(self.root_page_id, key, rid)
        if split is not None:
            sep_key, right_pid = split
            new_root = self._new_node(is_leaf=False)
            new_root.keys = [sep_key]
            new_root.children = [self.root_page_id, right_pid]
            self._save(new_root)
            self.root_page_id = new_root.page_id
            self.height += 1

    def _insert_into(
        self, page_id: int, key: int, rid: RID
    ) -> Optional[Tuple[int, int]]:
        node = self._load(page_id)
        if node.is_leaf:
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                raise DuplicateKeyError(f"index {self.name!r}: duplicate key {key}")
            node.keys.insert(idx, key)
            node.values.insert(idx, rid)
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            self._save(node)
            return None
        idx = bisect_right(node.keys, key)
        split = self._insert_into(node.children[idx], key, rid)
        if split is None:
            return None
        sep_key, right_pid = split
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, right_pid)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        self._save(node)
        return None

    def _split_leaf(self, node: _Node) -> Tuple[int, int]:
        mid = len(node.keys) // 2
        right = self._new_node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        node.next_leaf = right.page_id
        self._save(right)
        self._save(node)
        return right.keys[0], right.page_id

    def _split_internal(self, node: _Node) -> Tuple[int, int]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = self._new_node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._save(right)
        self._save(node)
        return sep, right.page_id

    # -- delete --------------------------------------------------------------------

    def delete(self, key: int) -> None:
        """Remove a key from its leaf (no rebalancing)."""
        node = self._load(self.root_page_id)
        while not node.is_leaf:
            idx = bisect_right(node.keys, key)
            node = self._load(node.children[idx])
        idx = bisect_left(node.keys, key)
        if idx >= len(node.keys) or node.keys[idx] != key:
            raise KeyNotFoundError(f"index {self.name!r}: key {key} not found")
        node.keys.pop(idx)
        node.values.pop(idx)
        self._save(node)

    # -- scans ----------------------------------------------------------------------

    def range_search(self, lo: int, hi: int) -> List[tuple]:
        """All (key, rid) with lo <= key <= hi, in key order.

        Descends to the leaf covering ``lo`` and walks the leaf chain.
        """
        if hi < lo:
            return []
        node = self._load(self.root_page_id)
        while not node.is_leaf:
            idx = bisect_right(node.keys, lo)
            node = self._load(node.children[idx])
        out: List[tuple] = []
        while True:
            idx = bisect_left(node.keys, lo)
            for key, rid in zip(node.keys[idx:], node.values[idx:]):
                if key > hi:
                    return out
                out.append((key, tuple(rid)))
            if not node.next_leaf:
                return out
            node = self._load(node.next_leaf)

    def items(self):
        """Yield (key, rid) in key order."""
        node = self._load(self.root_page_id)
        while not node.is_leaf:
            node = self._load(node.children[0])
        while True:
            for key, rid in zip(node.keys, node.values):
                yield key, tuple(rid)
            if not node.next_leaf:
                return
            node = self._load(node.next_leaf)
