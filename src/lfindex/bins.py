"""Lock-free bins: sorted linked lists that absorb writes between retrains.

A one-level bin is a sorted singly-linked list of key nodes whose links
carry a freeze bit (MarkedLink).  A two-level bin fans the key space out
over a fixed array of child lists behind immutable separators.  Keys are
never physically removed: deletion writes an Absent version, so the only
stolen link bit is the freeze flag.

This module is mechanism only: lists, splices, freeze, collect and split.
When a bin is full, and how wide a split is, is decided by the index from
its IndexConfig.

The freeze rule, for bins and for the model nodes a compaction freezes
alike: a freeze stops splices and installs, never a chain write.

- A list only gains nodes until it is frozen.  Freezing is idempotent and
  proceeds head to tail, and a splice CASes the very link it loaded, so a
  splice either lands ahead of the freeze frontier (and is collected) or
  finds its link frozen and returns UNDER_MAKE_MODEL for the caller to
  help retrain.  That bounce is the only one.
- A model node freezes in one step, and an install in one of its slots
  is a ``dcss`` that fails once it has: the install lands before the
  freeze (and is collected) or fails and helps the compaction.
- Every OLB->TLB split, retrain and compaction reuses the collected chain
  heads, so each key has exactly one version chain however many structures
  have held it.  An overwrite or delete of a key found in a frozen list
  therefore writes that chain, and every later structure reads it.
- A find or delete that finds no key is linearized at seek's load of the
  bin's slot: nodes are never unlinked, so a key in the list then would
  have been found.

Walk: ``_olb_seek`` is the one walk toward a key, for inserts, finds,
deletes and the start of a scan.  It ignores freeze bits.  Nodes are never
unlinked, so any node of a list below the key is a valid start.  Each list
keeps a ``hint``, the node of its last splice, and a walk starts there when
the hint is below its key, so ascending inserts splice in O(1) loads.
Every mutation of a list funnels through a CAS, as everywhere in the
index; the hint alone is a plain slot store, because it is advisory: any
node of the list, or None, is a correct value, so a stale or racing store
costs at most a longer walk.
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


#: Returned by an insert iff the link it would splice at is frozen; the bin
#: is being retrained and the caller should help finish the replacement.
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


def _olb_seek(olb: OneLevelBin, key: int,
              ref: Optional[AtomicRef] = None) -> tuple[AtomicRef, MarkedLink]:
    """The first link at or after the start whose target is None or >= key,
    and the cell it was loaded from.

    Starts at ``ref``, or after the hint when the hint is below ``key``, or
    else at the head.  Freeze bits are not checked."""
    if ref is None:
        hint = olb.hint
        ref = hint.next if hint is not None and hint.item < key else olb.head
    link = ref.load()
    node = link.target
    while node is not None and node.item < key:
        ref = node.next
        link = ref.load()
        node = link.target
    return ref, link


def _olb_insert(olb: OneLevelBin, key: int, value: int, clock: GlobalClock):
    """Returns (result, spliced): result True/False/UNDER_MAKE_MODEL.

    A key already in the list gets a chain write, frozen or not; a new key
    is spliced at the link the walk stopped at, unless that link is frozen.
    A lost CAS walks on from the same predecessor cell, so a storm of
    inserts makes progress without restarting.
    """
    ref, link = _olb_seek(olb, key)
    while True:
        node = link.target
        if node is not None and node.item == key:
            return write_value(node.version, value, clock), False
        if link.frozen:
            return UNDER_MAKE_MODEL, False
        fresh = VersionedValue(value)
        knode = KNode(key, AtomicRef(fresh), AtomicRef(_link_to(node)))
        if ref.compare_and_swap(link, MarkedLink(knode, False)):
            olb.hint = knode
            # stamp before reporting success: an unstamped splice could be
            # assigned a too-new time by a later scan and vanish from
            # snapshots that must include it
            init_ts(fresh, clock)
            olb.size.fetch_add(1)
            return True, True
        ref, link = _olb_seek(olb, key, ref)


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
    if a new key meets a frozen link.  A splice counts in its list's size
    and, in a two-level bin, in the bin's total as well.
    """
    lst = _list_for(bin_, key)
    result, spliced = _olb_insert(lst, key, value, clock)
    if spliced and lst is not bin_:
        bin_.size.fetch_add(1)
    return result


def delete_bin(bin_: Any, key: int, clock: GlobalClock) -> bool:
    """True if ``key`` was present; its chain gets an Absent version, frozen
    or not."""
    knode = search_bin(bin_, key)
    return knode is not None and write_value(knode.version, None, clock)


def search_bin(bin_: Any, key: int) -> Optional[KNode]:
    """Find the node for ``key`` if spliced, frozen or not.  Read-only."""
    node = _olb_seek(_list_for(bin_, key), key)[1].target
    return node if node is not None and node.item == key else None


def scan_bin(bin_: Any, lo: int, hi: int, ts: int, out: list,
             clock: GlobalClock, limit: Optional[int] = None) -> None:
    """Append (key, value-at-ts) pairs with lo <= key <= hi, ascending.

    Ignores freeze bits; skips keys deleted at ts or younger than ts."""
    if bin_.is_one_level:
        lists = (bin_,)
    else:  # the children owning lo through hi
        seps = bin_.keys
        lists = bin_.children[bisect_left(seps, lo):bisect_left(seps, hi) + 1]
    for lst in lists:
        node = _olb_seek(lst, lo)[1].target
        while node is not None and node.item <= hi:
            if limit is not None and len(out) >= limit:
                return
            val = read_value_at(node.version, ts, clock)
            if val is not None and val is not TOMBSTONE:
                out.append((node.item, val))
            node = node.next.load().target


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
