"""Unit tests for inode allocation (segments) and the LRU cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pfs.cache import LruDict
from repro.pfs.inode import InodeTable
from repro.pfs.types import DIRECTORY, FILE, SYMLINK, FileAttr


def alloc(table, creator="n0", kind=FILE):
    return table.allocate(kind, 0o644, 0, 0, 0.0, creator)


def test_allocate_assigns_unique_inos():
    t = InodeTable()
    inos = {alloc(t).ino for _ in range(100)}
    assert len(inos) == 100


def test_per_creator_segments_are_disjoint():
    t = InodeTable()
    a = [alloc(t, "a").ino for _ in range(10)]
    b = [alloc(t, "b").ino for _ in range(10)]
    assert t.segment_of(a[0]) != t.segment_of(b[0])
    assert t.segment_owner(t.segment_of(a[0])) == "a"
    assert t.segment_owner(t.segment_of(b[0])) == "b"


def test_same_creator_inos_are_contiguous():
    t = InodeTable()
    inos = [alloc(t, "a").ino for _ in range(5)]
    assert inos == list(range(inos[0], inos[0] + 5))


def test_segment_rollover():
    t = InodeTable()
    first = alloc(t, "a").ino
    t._segments["a"][0] = t._segments["a"][1]  # exhaust the segment
    nxt = alloc(t, "a").ino
    assert t.segment_of(nxt) != t.segment_of(first)
    assert t.segment_owner(t.segment_of(nxt)) == "a"


def test_free_removes_inode():
    t = InodeTable()
    inode = alloc(t)
    assert inode.ino in t
    t.free(inode.ino)
    assert inode.ino not in t
    assert t.get(inode.ino) is None


def test_block_packing():
    t = InodeTable(pack=8)
    inos = [alloc(t, "a").ino for _ in range(10)]
    blocks = {t.block_of(i) for i in inos}
    assert len(blocks) == 2  # 10 inodes over 8-inode blocks
    first = t.block_of(inos[0])
    snapshot = t.attr_snapshot(first)
    assert sorted(snapshot) == [i for i in inos if t.block_of(i) == first]
    assert FileAttr(*snapshot[inos[0]]) == t.get(inos[0]).attr()


def test_inode_kinds():
    t = InodeTable()
    f = alloc(t, kind=FILE)
    d = alloc(t, kind=DIRECTORY)
    s = alloc(t, kind=SYMLINK)
    assert f.is_file and f.data is not None and f.dir is None
    assert d.is_dir and d.dir is not None and d.data is None
    assert d.nlink == 2
    assert s.is_symlink


def test_dir_inode_attr_size_is_entry_count():
    t = InodeTable()
    d = alloc(t, kind=DIRECTORY)
    d.dir.insert("a", 5)
    d.dir.insert("b", 6)
    assert d.attr().size == 2


def test_file_attr_snapshot():
    t = InodeTable()
    f = alloc(t)
    f.size = 42
    attr = f.attr()
    assert attr.size == 42
    assert attr.ino == f.ino
    attr.size = 0
    assert f.size == 42  # snapshot, not alias


# -- LruDict ------------------------------------------------------------------


def test_lru_put_get():
    c = LruDict(2)
    assert c.put("a", 1) == []
    assert c.get("a") == 1
    assert c.get("missing") is None
    assert c.hits == 1 and c.misses == 1


def test_lru_eviction_order():
    c = LruDict(2)
    c.put("a", 1)
    c.put("b", 2)
    evicted = c.put("c", 3)
    assert evicted == [("a", 1)]
    assert "a" not in c and "b" in c and "c" in c


def test_lru_get_refreshes_recency():
    c = LruDict(2)
    c.put("a", 1)
    c.put("b", 2)
    c.get("a")
    evicted = c.put("c", 3)
    assert evicted == [("b", 2)]


def test_lru_peek_does_not_refresh():
    c = LruDict(2)
    c.put("a", 1)
    c.put("b", 2)
    c.peek("a")
    evicted = c.put("c", 3)
    assert evicted == [("a", 1)]


def test_lru_overwrite_does_not_evict():
    c = LruDict(2)
    c.put("a", 1)
    c.put("b", 2)
    assert c.put("a", 10) == []
    assert c.get("a") == 10


def test_lru_pinned_entries_survive():
    c = LruDict(2, pinned=lambda v: v.get("pinned", False))
    c.put("a", {"pinned": True})
    c.put("b", {"pinned": False})
    evicted = c.put("c", {"pinned": False})
    assert [k for k, _v in evicted] == ["b"]
    assert "a" in c


def test_lru_all_pinned_allows_overflow():
    c = LruDict(2, pinned=lambda v: True)
    c.put("a", 1)
    c.put("b", 2)
    assert c.put("c", 3) == []
    assert len(c) == 3


def test_lru_pop_and_clear():
    c = LruDict(4)
    c.put("a", 1)
    assert c.pop("a") == 1
    assert c.pop("a") is None
    c.put("b", 2)
    c.clear()
    assert len(c) == 0


def test_lru_capacity_validation():
    with pytest.raises(ValueError):
        LruDict(0)


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=200))
def test_lru_never_exceeds_capacity_and_keeps_recent(accesses):
    capacity = 8
    c = LruDict(capacity)
    for key in accesses:
        c.put(key, key)
        assert len(c) <= capacity
    # the most recently inserted distinct keys are present
    recent = []
    for key in reversed(accesses):
        if key not in recent:
            recent.append(key)
        if len(recent) == capacity:
            break
    for key in recent:
        assert key in c
