"""Tests for the B+tree index, including hypothesis property tests."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatabaseError, DuplicateKeyError, KeyNotFoundError
from repro.db.btree import BTree, _Node
from repro.db.buffer import BufferPool
from repro.db.storage import PageStore


def make_tree(order=8, capacity=256):
    pool = BufferPool(PageStore(), capacity=capacity)
    return BTree("t", pool, order=order)


class TestBTreeBasics:
    def test_empty_search(self):
        tree = make_tree()
        assert tree.search(1) is None

    def test_insert_and_search(self):
        tree = make_tree()
        tree.insert(5, (1, 0))
        assert tree.search(5) == (1, 0)

    def test_lookup_raises_on_missing(self):
        tree = make_tree()
        with pytest.raises(KeyNotFoundError):
            tree.lookup(42)

    def test_duplicate_rejected(self):
        tree = make_tree()
        tree.insert(1, (1, 0))
        with pytest.raises(DuplicateKeyError):
            tree.insert(1, (1, 1))

    def test_order_validated(self):
        with pytest.raises(DatabaseError):
            make_tree(order=2)

    def test_split_grows_height(self):
        tree = make_tree(order=4)
        assert tree.height == 1
        for key in range(10):
            tree.insert(key, (1, key))
        assert tree.height > 1
        for key in range(10):
            assert tree.search(key) == (1, key)

    def test_many_keys_sequential(self):
        tree = make_tree(order=8)
        for key in range(500):
            tree.insert(key, (key // 100 + 1, key % 100))
        for key in range(500):
            assert tree.search(key) == (key // 100 + 1, key % 100)
        assert tree.search(500) is None

    def test_many_keys_reverse(self):
        tree = make_tree(order=8)
        for key in reversed(range(300)):
            tree.insert(key, (1, key % 60))
        for key in range(300):
            assert tree.search(key) == (1, key % 60)

    def test_items_in_key_order(self):
        tree = make_tree(order=4)
        import random

        keys = list(range(100))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, (1, key % 50))
        assert [k for k, _ in tree.items()] == list(range(100))

    def test_delete_removes_key(self):
        tree = make_tree(order=4)
        for key in range(20):
            tree.insert(key, (1, key))
        tree.delete(7)
        assert tree.search(7) is None
        assert tree.search(8) == (1, 8)
        with pytest.raises(KeyNotFoundError):
            tree.delete(7)

    def test_descent_hook(self):
        tree = make_tree(order=4)
        seen = []
        tree.on_descent = lambda levels, found: seen.append((levels, found))
        for key in range(30):
            tree.insert(key, (1, key))
        tree.search(5)
        tree.search(999)
        assert seen[-2] == (tree.height, True)
        assert seen[-1] == (tree.height, False)

    def test_node_too_big_for_page_rejected(self):
        with pytest.raises(DatabaseError):
            make_tree(order=1000)


class TestBTreeProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), unique=True,
                    min_size=1, max_size=200))
    def test_insert_then_find_all(self, keys):
        tree = make_tree(order=6, capacity=1024)
        for i, key in enumerate(keys):
            tree.insert(key, (1 + i // 100, i % 100))
        for i, key in enumerate(keys):
            assert tree.search(key) == (1 + i // 100, i % 100)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6), unique=True,
                    min_size=2, max_size=150))
    def test_items_sorted_invariant(self, keys):
        tree = make_tree(order=5, capacity=1024)
        for key in keys:
            tree.insert(key, (1, 0))
        listed = [k for k, _ in tree.items()]
        assert listed == sorted(keys)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=5000), unique=True,
                 min_size=10, max_size=100),
        st.data(),
    )
    def test_delete_subset(self, keys, data):
        tree = make_tree(order=5, capacity=1024)
        for key in keys:
            tree.insert(key, (1, 0))
        victims = data.draw(st.sets(st.sampled_from(keys), max_size=len(keys) // 2))
        for key in victims:
            tree.delete(key)
        for key in keys:
            if key in victims:
                assert tree.search(key) is None
            else:
                assert tree.search(key) == (1, 0)


# -- node codec ---------------------------------------------------------------------
# A frozen copy of the per-field codec the array codec replaced: one
# struct call per key, RID and child.

_HEADER = struct.Struct("<BHI")
_KEY = struct.Struct("<q")
_RID = struct.Struct("<IH")
_CHILD = struct.Struct("<I")


def reference_to_bytes(node):
    parts = [_HEADER.pack(1 if node.is_leaf else 0, len(node.keys), node.next_leaf)]
    parts.extend(_KEY.pack(k) for k in node.keys)
    if node.is_leaf:
        parts.extend(_RID.pack(*rid) for rid in node.values)
    else:
        parts.extend(_CHILD.pack(c) for c in node.children)
    return b"".join(parts)


def reference_from_bytes(page_id, data):
    is_leaf, nkeys, next_leaf = _HEADER.unpack_from(data, 0)
    pos = _HEADER.size
    keys = []
    for _ in range(nkeys):
        keys.append(_KEY.unpack_from(data, pos)[0])
        pos += _KEY.size
    node = _Node(page_id=page_id, is_leaf=bool(is_leaf), keys=keys, next_leaf=next_leaf)
    if node.is_leaf:
        for _ in range(nkeys):
            node.values.append(_RID.unpack_from(data, pos))
            pos += _RID.size
    else:
        for _ in range(nkeys + 1):
            node.children.append(_CHILD.unpack_from(data, pos)[0])
            pos += _CHILD.size
    return node


UINT32 = st.integers(0, 2**32 - 1)


@st.composite
def nodes(draw):
    n = draw(st.integers(0, 129))
    keys = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    node = _Node(page_id=draw(UINT32), is_leaf=draw(st.booleans()), keys=keys,
                 next_leaf=draw(UINT32))
    if node.is_leaf:
        rid = st.tuples(UINT32, st.integers(0, 2**16 - 1))
        node.values = draw(st.lists(rid, min_size=n, max_size=n))
    else:
        node.children = draw(st.lists(UINT32, min_size=n + 1, max_size=n + 1))
    return node


class TestNodeCodec:
    @settings(max_examples=200)
    @given(nodes(), st.integers(0, 64))
    def test_matches_per_field_codec(self, node, padding):
        data = node.to_bytes()
        assert data == reference_to_bytes(node)
        padded = data + b"\x00" * padding  # pages hold fixed-size cells
        decoded = _Node.from_bytes(node.page_id, padded)
        assert decoded == reference_from_bytes(node.page_id, padded) == node
        assert all(type(rid) is tuple for rid in decoded.values)

    def test_tree_pages_decode_identically(self):
        tree = make_tree(order=6)
        for key in range(200):
            tree.insert(key * 7 - 500, (key, key % 5))
        page_ids = {tree.root_page_id}
        frontier = [tree.root_page_id]
        while frontier:
            node = tree._load(frontier.pop())
            assert node == reference_from_bytes(node.page_id, tree._pack(node))
            assert tree._pack(node).startswith(reference_to_bytes(node))
            fresh = set(node.children) - page_ids
            page_ids |= fresh
            frontier.extend(fresh)
        assert len(page_ids) > 20
