"""Lock-free bins: sorted linked lists that absorb writes between retrains.

A one-level bin is a sorted singly-linked list of key nodes whose links
carry a freeze bit (MarkedLink).  A two-level bin fans the key space out
over a fixed array of child lists behind immutable separators.  Keys are
never physically removed: deletion writes an Absent version, so the only
stolen link bit is the freeze flag.

This module is mechanism only: lists, splices, freeze, collect and split.
When a bin is full, and how wide a split is, is decided by the index from
its IndexConfig.

Mutators that observe a frozen link back off with UNDER_MAKE_MODEL so the
caller can help retrain; readers ignore freeze bits entirely.  Freezing is
idempotent and proceeds head to tail, so a successful splice is always at or
ahead of the freeze frontier and will be collected.

Walk start: nodes are never unlinked, so any node of a list below the key
is a valid start for a walk to that key.  Each list keeps a ``hint``, the
node of its last splice, and an insert starts there when the hint is below
its key, so ascending inserts splice in O(1) loads.  The walk checks the
freeze bit on every link it loads, wherever it starts.  Every mutation of a
list funnels through a CAS, as everywhere in the index; the hint alone is a
plain slot store, because it is advisory: any node of the list, or None, is
a correct value, so a stale or racing store costs at most a longer walk.
Scans, finds and deletes start at the head.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Optional

from .core import (
    AtomicInt,
    AtomicRef,
    END,
    FROZEN_END,
    GlobalClock,
    MarkedLink,
    VersionedValue,
    init_ts,
    read_value_at,
    write_value,
    TOMBSTONE,
)


class _UnderMakeModel:
    __slots__ = ()

    def __repr__(self):
        return "UNDER_MAKE_MODEL"


#: Returned by bin mutators iff they observed a frozen link; the bin is
#: being retrained and the caller should help finish the replacement.
UNDER_MAKE_MODEL = _UnderMakeModel()


class KNode:
    """One key in a bin list: immutable key, version-chain head, marked link."""

    __slots__ = ("item", "version", "next")

    def __init__(self, item: int, version: AtomicRef, nxt: AtomicRef):
        self.item = item
        self.version = version  # AtomicRef -> VersionedValue chain head
        self.next = nxt         # AtomicRef -> MarkedLink

    def __repr__(self):
        return f"KNode({self.item})"


def _link_to(node: Optional[KNode]) -> MarkedLink:
    """An unfrozen link to ``node``; the shared END for the list tail."""
    return END if node is None else MarkedLink(node, False)


class OneLevelBin:
    __slots__ = ("head", "size", "hint")
    is_one_level = True

    def __init__(self, first: Optional[KNode], size: int,
                 hint: Optional[KNode] = None):
        self.head = AtomicRef(_link_to(first))
        self.size = AtomicInt(size)  # distinct keys spliced, not value updates
        self.hint = hint  # advisory walk start: a node of this list, or None


class TwoLevelBin:
    """F child lists behind F-1 immutable separators.

    Child i owns keys in (keys[i-1], keys[i]]; the last child is unbounded
    above.  Each child counts its own splices; size totals them.
    """

    __slots__ = ("keys", "children", "size")
    is_one_level = False

    def __init__(self, keys: list[int], children: list[OneLevelBin], size: int):
        assert len(children) == len(keys) + 1
        self.keys = keys
        self.children = children
        self.size = AtomicInt(size)


def bin_new(key: int, value: int) -> tuple[OneLevelBin, VersionedValue]:
    """Fresh one-level bin holding a single (key, value) pair, and its version.

    The version is left unstamped: whoever publishes the bin stamps it after
    the publishing CAS, as every other writer does."""
    ver = VersionedValue(value)
    node = KNode(key, AtomicRef(ver), AtomicRef(END))
    return OneLevelBin(node, 1, node), ver


def _olb_insert(olb: OneLevelBin, key: int, value: int, clock: GlobalClock):
    """Returns (result, spliced): result True/False/UNDER_MAKE_MODEL.

    Starts after the list's hint when the hint is below ``key``, else at the
    head, and walks to the insertion point re-checking the freeze bit on
    every link; a lost CAS re-reads the same predecessor link and keeps
    walking, so a storm of inserts makes progress without restarting.
    """
    hint = olb.hint
    prev_ref = hint.next if hint is not None and hint.item < key else olb.head
    link = prev_ref.load()
    while True:
        if link.frozen:
            return UNDER_MAKE_MODEL, False
        node = link.target
        if node is not None and node.item < key:
            prev_ref = node.next
            link = prev_ref.load()
            continue
        if node is not None and node.item == key:
            return write_value(node.version, value, clock), False
        fresh = VersionedValue(value)
        knode = KNode(key, AtomicRef(fresh), AtomicRef(_link_to(node)))
        if prev_ref.compare_and_swap(link, MarkedLink(knode, False)):
            olb.hint = knode
            # stamp before reporting success: an unstamped splice could be
            # assigned a too-new time by a later scan and vanish from
            # snapshots that must include it
            init_ts(fresh, clock)
            olb.size.fetch_add(1)
            return True, True
        link = prev_ref.load()


def _olb_delete(olb: OneLevelBin, key: int, clock: GlobalClock):
    ref = olb.head
    while True:
        link = ref.load()
        if link.frozen:
            return UNDER_MAKE_MODEL
        node = link.target
        if node is None or node.item > key:
            return False
        if node.item == key:
            return write_value(node.version, None, clock)
        ref = node.next


def _olb_find(olb: OneLevelBin, key: int) -> Optional[KNode]:
    node = olb.head.load().target
    while node is not None and node.item < key:
        node = node.next.load().target
    if node is not None and node.item == key:
        return node
    return None


def _list_for(bin_: Any, key: int) -> OneLevelBin:
    """The list that owns ``key``: a one-level bin itself, or the child of a
    two-level bin picked by its separators."""
    if bin_.is_one_level:
        return bin_
    return bin_.children[bisect_left(bin_.keys, key)]


def _lists(bin_: Any):
    """Every list of a bin, in key order."""
    return (bin_,) if bin_.is_one_level else bin_.children


def list_size(bin_: Any, key: int) -> int:
    """Keys spliced into the list that owns ``key``."""
    return _list_for(bin_, key).size.load()


def insert_bin(bin_: Any, key: int, value: int, clock: GlobalClock):
    """Insert or update; True/False per the map contract, UNDER_MAKE_MODEL
    if a freeze was observed.  A splice counts in its list's size and, in a
    two-level bin, in the bin's total as well.
    """
    lst = _list_for(bin_, key)
    result, spliced = _olb_insert(lst, key, value, clock)
    if spliced and lst is not bin_:
        bin_.size.fetch_add(1)
    return result


def delete_bin(bin_: Any, key: int, clock: GlobalClock):
    return _olb_delete(_list_for(bin_, key), key, clock)


def search_bin(bin_: Any, key: int) -> Optional[KNode]:
    """Find the node for ``key`` if spliced, frozen or not.  Read-only."""
    return _olb_find(_list_for(bin_, key), key)


def _olb_scan(node: Optional[KNode], lo: int, hi: int, ts: int, out: list,
              clock: GlobalClock, limit: Optional[int]) -> None:
    # ``node`` is the first node of the list to scan
    while node is not None and node.item < lo:
        node = node.next.load().target
    while node is not None and node.item <= hi:
        if limit is not None and len(out) >= limit:
            return
        val = read_value_at(node.version, ts, clock)
        if val is not None and val is not TOMBSTONE:
            out.append((node.item, val))
        node = node.next.load().target


def scan_bin(bin_: Any, lo: int, hi: int, ts: int, out: list,
             clock: GlobalClock, limit: Optional[int] = None) -> None:
    """Append (key, value-at-ts) pairs with lo <= key <= hi, ascending.

    Ignores freeze bits; skips keys deleted at ts or younger than ts."""
    if bin_.is_one_level:
        _olb_scan(bin_.head.load().target, lo, hi, ts, out, clock, limit)
        return
    a = bisect_left(bin_.keys, lo)   # child owning lo
    b = bisect_left(bin_.keys, hi)   # child owning hi
    for child in bin_.children[a:b + 1]:
        if limit is not None and len(out) >= limit:
            return
        first = child.head.load().target
        if first is not None:
            _olb_scan(first, lo, hi, ts, out, clock, limit)


def freeze_bin(bin_: Any) -> None:
    """Set the freeze bit on every link, head to tail.  Idempotent; safe to
    race with other freezers and with splices (a winning splice lands ahead
    of the frontier and gets frozen too)."""
    for lst in _lists(bin_):
        _freeze_olb(lst)


def _freeze_olb(olb: OneLevelBin) -> None:
    ref = olb.head
    while True:
        link = ref.load()
        node = link.target
        if not link.frozen:
            frozen = FROZEN_END if node is None else MarkedLink(node, True)
            if not ref.compare_and_swap(link, frozen):
                continue  # a splice or another freezer won; re-read this link
        if node is None:
            return
        ref = node.next


def collect_frozen(bin_: Any, clock: GlobalClock) -> tuple[list[int], list[AtomicRef]]:
    """Keys and version-chain heads of a fully frozen bin, in key order.

    Deleted keys are retained (their latest payload is Absent); every
    collected head gets its timestamp assigned so nothing leaves a bin
    unstamped."""
    keys: list[int] = []
    versions: list[AtomicRef] = []
    for lst in _lists(bin_):
        _collect_olb(lst, keys, versions, clock)
    return keys, versions


def _collect_olb(olb: OneLevelBin, keys: list, versions: list,
                 clock: GlobalClock) -> None:
    link = olb.head.load()
    assert link.frozen, "collect requires a frozen bin"
    node = link.target
    while node is not None:
        keys.append(node.item)
        versions.append(node.version)
        init_ts(node.version.load(), clock)
        link = node.next.load()
        assert link.frozen, "collect requires a frozen bin"
        node = link.target


def _olb_from_sorted(keys: list[int], versions: list[AtomicRef]) -> OneLevelBin:
    """A fresh unfrozen list over the keys, its tail as the hint."""
    node = tail = None
    for item, ver in zip(reversed(keys), reversed(versions)):
        node = KNode(item, ver, AtomicRef(_link_to(node)))
        if tail is None:
            tail = node
    return OneLevelBin(node, len(keys), tail)


def olb_to_tlb(keys: list[int], versions: list[AtomicRef],
               fanout: int) -> TwoLevelBin:
    """A fresh two-level bin over the collected keys and version chains of a
    frozen one-level bin.

    Keys are dealt out ceil-first (the first n mod F children get one
    extra), separators are each child's last key.  Child lists are rebuilt
    with fresh nodes and unfrozen links but REUSE the version-chain heads,
    so writers still holding the old bin update the same chains the new bin
    reads."""
    n = len(keys)
    assert n > 0, "cannot split an empty bin"
    q, r = divmod(n, fanout)
    children: list[OneLevelBin] = []
    seps: list[int] = []
    pos = 0
    for i in range(fanout):
        take = q + 1 if i < r else q
        children.append(_olb_from_sorted(keys[pos:pos + take],
                                         versions[pos:pos + take]))
        pos += take
        if i < fanout - 1:
            # an empty tail child inherits the running last key
            seps.append(keys[pos - 1])  # pos > 0: n > 0 gives child 0 a key
    return TwoLevelBin(seps, children, n)
