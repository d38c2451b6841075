"""Lock-free bins: sorted linked lists that absorb writes between retrains.

A one-level bin is a sorted singly-linked list of key nodes.  A two-level
bin fans the key space out over a fixed array of child lists behind
immutable separators.  Keys are never physically removed: deletion writes
an Absent version, so a link is only its target.

This module is mechanism only: lists, splices, freeze, collect, split and
scan.
When a bin is full, and how wide a split is, is decided by the index from
its IndexConfig.

The freeze rule, for bins and for the model nodes a compaction freezes
alike: a freeze stops splices and installs, never a chain write, and a
write that a freeze must stop is a guarded store on the frozen record.

- A bin or a model node freezes in one step: ``core.freeze`` sets its
  ``frozen`` word.  A splice is a ``core.splice`` against the bin and an
  install a ``core.dcss`` against the node, and both fail once the word
  is set, so each lands before the freeze (and is collected) or fails.
  A two-level bin's word guards all its child lists, which are reachable
  only through it; a child list's own word stays None.
- A list only gains nodes.  A splice that fails on a frozen bin returns
  UNDER_MAKE_MODEL for the caller to help retrain; that bounce is the
  only one.  An install that fails on a frozen node, like a rebuild
  whose slot sits in one, finishes the compaction that froze the node
  (``index.LearnedIndex.help_compact``) and builds nothing of its own.
- Every OLB->TLB split, retrain and compaction reuses the collected chain
  heads, so each key has exactly one version chain however many structures
  have held it.  An overwrite or delete of a key found in a frozen list
  therefore writes that chain, and every later structure reads it.
- A find or delete that finds no key is linearized at seek's load of the
  bin's slot: nodes are never unlinked, so a key in the list then would
  have been found.

Walk: ``_olb_seek`` is the one walk toward a key, for inserts, finds,
deletes and the start of a scan.  It ignores the freeze word.  Nodes are
never unlinked, so any node of a list below the key is a valid start.
Each list keeps a ``hint``, the node of its last splice, and a walk starts
there when the hint is below its key, so ascending inserts splice in O(1)
loads.  After construction every write to a list, its links, its hint
and its counts, is inside that list's ``core.splice``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Optional

from .core import (
    AtomicRef,
    END,
    GlobalClock,
    Link,
    VersionedValue,
    freeze,
    read_value_at,
    splice,
    write_value,
    UNSET_TS,
)


class _UnderMakeModel:
    __slots__ = ()

    def __repr__(self):
        return "UNDER_MAKE_MODEL"


#: Returned by an insert iff its splice failed on a frozen bin; the bin is
#: being retrained and the caller should help finish the replacement.
UNDER_MAKE_MODEL = _UnderMakeModel()


class KNode:
    """One key in a bin list: immutable key, version-chain head, next link."""

    __slots__ = ("item", "version", "next")

    def __init__(self, item: int, version: AtomicRef, nxt: AtomicRef):
        self.item = item
        self.version = version  # AtomicRef -> VersionedValue chain head
        self.next = nxt         # AtomicRef -> Link

    def __repr__(self):
        return f"KNode({self.item})"


def _link_to(node: Optional[KNode]) -> Link:
    """A link to ``node``; the shared END for the list tail."""
    return END if node is None else Link(node)


class OneLevelBin:
    """A sorted list and its freeze word: None, or True once frozen (the
    child lists of a two-level bin keep None)."""

    __slots__ = ("head", "size", "hint", "frozen")
    is_one_level = True

    def __init__(self, first: Optional[KNode], size: int,
                 hint: Optional[KNode] = None):
        self.head = AtomicRef(_link_to(first))
        self.size = size  # distinct keys spliced, not value updates
        self.hint = hint  # walk start: a node of this list, or None
        self.frozen = None


class TwoLevelBin:
    """F child lists behind F-1 immutable separators.

    Child i owns keys in (keys[i-1], keys[i]]; the last child is unbounded
    above.  Each child counts its own splices; size totals them.  The bin's
    freeze word guards every child list.
    """

    __slots__ = ("keys", "children", "size", "frozen")
    is_one_level = False

    def __init__(self, keys: list[int], children: list[OneLevelBin], size: int):
        assert len(children) == len(keys) + 1
        self.keys = keys
        self.children = children
        self.size = size
        self.frozen = None


def bin_new(key: int, value: int) -> tuple[OneLevelBin, VersionedValue]:
    """Fresh one-level bin holding a single (key, value) pair, and its version.

    The version is left unstamped: whoever publishes the bin stamps it after
    the publishing CAS, as every other writer does."""
    ver = VersionedValue(value)
    node = KNode(key, AtomicRef(ver), AtomicRef(END))
    return OneLevelBin(node, 1, node), ver


def _olb_seek(olb: OneLevelBin, key: int,
              ref: Optional[AtomicRef] = None) -> tuple[AtomicRef, Link]:
    """The first link at or after the start whose target is None or >= key,
    and the cell it was loaded from.

    Starts at ``ref``, or after the hint when the hint is below ``key``, or
    else at the head.  The freeze word is not checked."""
    if ref is None:
        hint = olb.hint
        ref = hint.next if hint is not None and hint.item < key else olb.head
    link = ref.value
    node = link.target
    while node is not None and node.item < key:
        ref = node.next
        link = ref.value
        node = link.target
    return ref, link


def _olb_insert(owner: Any, olb: OneLevelBin, key: int, value: int,
                clock: GlobalClock):
    """True/False per the map contract, or UNDER_MAKE_MODEL.

    A key already in ``olb`` gets a chain write, frozen or not; a new key
    is spliced at the link the walk stopped at, guarded by ``owner``, the
    bin that owns the list.  A splice that fails on a frozen owner bounces;
    one that loses to another splice walks on from the same cell, so a
    storm of inserts makes progress without restarting.  The new key's
    node is made once per call, its next cell empty until a splice
    succeeds.
    """
    ref, link = _olb_seek(olb, key)
    new = None
    while True:
        node = link.target
        if node is not None and node.item == key:
            return write_value(node.version, value, clock)
        if new is None:
            fresh = VersionedValue(value)
            new = Link(KNode(key, AtomicRef(fresh), AtomicRef()))
        if splice(owner, olb, ref, link, new):
            # stamp before reporting success: an unstamped splice could be
            # assigned a too-new time by a later scan and vanish from
            # snapshots that must include it
            fresh.stamp(clock)
            return True
        if owner.frozen is not None:
            return UNDER_MAKE_MODEL
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
    return _list_for(bin_, key).size


def insert_bin(bin_: Any, key: int, value: int, clock: GlobalClock):
    """Insert or update; True/False per the map contract, UNDER_MAKE_MODEL
    if a new key meets a frozen bin."""
    return _olb_insert(bin_, _list_for(bin_, key), key, value, clock)


def delete_bin(bin_: Any, key: int, clock: GlobalClock) -> bool:
    """True if ``key`` was present; its chain gets an Absent version, frozen
    or not."""
    knode = search_bin(bin_, key)
    return knode is not None and write_value(knode.version, None, clock)


def search_bin(bin_: Any, key: int) -> Optional[KNode]:
    """Find the node for ``key`` if spliced, frozen or not.  Read-only."""
    node = _olb_seek(_list_for(bin_, key), key)[1].target
    return node if node is not None and node.item == key else None


def scan_bin(bin_: Any, lo: Optional[int], hi: Optional[int], ts: int,
             out: list, clock: GlobalClock) -> None:
    """Append (key, value-at-ts) pairs with lo <= key <= hi, ascending.

    A bound of None excludes nothing: with ``lo`` None each list is walked
    from its head, with ``hi`` None to its end, and with both the whole bin
    is read, which a range scan does for a bin wholly inside its range.
    Ignores the freeze word; skips keys deleted at ts or younger than ts.
    A stamped head no newer than ts is read inline, as in ``rangescan``,
    which also applies any result cap."""
    if bin_.is_one_level:
        lists = (bin_,)
    else:  # the children owning lo through hi
        seps = bin_.keys
        first = 0 if lo is None else bisect_left(seps, lo)
        last = len(seps) if hi is None else bisect_left(seps, hi)
        lists = bin_.children[first:last + 1]
    for lst in lists:
        node = lst.head.value.target if lo is None else _olb_seek(lst, lo)[1].target
        while node is not None:
            if hi is not None and node.item > hi:
                return
            ref = node.version
            ver = ref.value
            if UNSET_TS < ver.ts <= ts:
                val = ver.val
            else:
                val = read_value_at(ref, ts, clock)
            if val is not None:
                out.append((node.item, val))
            node = node.next.value.target


def freeze_bin(bin_: Any) -> None:
    """Set the bin's freeze word: one ``core.freeze``, idempotent, after
    which no splice into any of its lists succeeds."""
    freeze(bin_, True)


def collect_frozen(bin_: Any, clock: GlobalClock) -> tuple[list[int], list[AtomicRef]]:
    """Keys and version-chain heads of a frozen bin, in key order.

    Deleted keys are retained (their latest payload is Absent); every
    collected head gets its timestamp assigned so nothing leaves a bin
    unstamped."""
    assert bin_.frozen is not None, "collect requires a frozen bin"
    keys: list[int] = []
    versions: list[AtomicRef] = []
    for lst in _lists(bin_):
        node = lst.head.value.target
        while node is not None:
            keys.append(node.item)
            versions.append(node.version)
            node.version.value.stamp(clock)
            node = node.next.value.target
    return keys, versions


def _olb_from_sorted(keys: list[int], versions: list[AtomicRef]) -> OneLevelBin:
    """A fresh list over the keys, its tail as the hint."""
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
    with fresh nodes and links but REUSE the version-chain heads,
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
