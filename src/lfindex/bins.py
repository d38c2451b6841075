"""Lock-free bins: sorted linked lists that absorb writes between retrains.

A one-level bin is a sorted singly-linked list of key nodes.  A two-level
bin fans the key space out over a fixed array of child lists behind
immutable separators.  A node's ``next`` holds the next node, or
``core.END`` at the tail, whose key is above every key; a list's own
``next`` holds its first node, so the list is the predecessor of its head
and a walk needs no test for either end.  Keys are never physically
removed: deletion writes an Absent version, so a node's ``next`` only
ever takes a fresh node spliced in behind it.

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
deletes and the start of a scan: it returns the last node below the key,
or the list, and the node after it.  It ignores the freeze word.  Nodes are
never unlinked, so any node of a list below the key is a valid start.
Each list keeps a ``hint``, the node of its last splice, and a walk starts
there when the hint is below its key, so ascending inserts splice in O(1)
loads.  A child list of a two-level bin also keeps ``fingers``: its nodes
in key order, made by the split, to which ``core.splice`` appends each
node that becomes the list's new tail.  A walk to a key at or below the
hint starts after the greatest finger below the key, found by bisection,
so a read of a recent key walks only the nodes spliced between two
fingers.  A reader may bisect ``fingers`` while a splice appends to it
under ``core._LOCK``: the list only grows at its end, an appended node is
above every node already in it, and the entries a reader sees never
change, so whatever length it reads, it finds a node of the list below
its key or none.  After construction every write to a list, its
``next`` fields, its hint, its fingers and its counts, is inside that
list's ``core.splice``.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Any, Optional

from .core import (
    KEY_MAX,
    AtomicRef,
    BenchReads,
    END,
    GlobalClock,
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


class KNode(BenchReads):
    """One key in a bin list: immutable key, version-chain head, and the
    next node or END."""

    __slots__ = ("item", "version", "next")

    def __init__(self, item: int, version: AtomicRef, nxt: Any = END):
        self.item = item
        self.version = version  # AtomicRef -> VersionedValue chain head
        self.next = nxt

    def __repr__(self):
        return f"KNode({self.item})"


class OneLevelBin(BenchReads):
    """A sorted list and its freeze word: None, or True once frozen (the
    child lists of a two-level bin keep None).  ``next`` is the first node,
    or END.  A one-level bin keeps no fingers (``fingers`` is None): it is
    split once it holds ``olb_threshold`` keys, and a slot would grow every
    one of the many small bins."""

    __slots__ = ("next", "size", "hint", "frozen")
    is_one_level = True
    fingers = None

    def __init__(self, first: Any, size: int, hint: Optional[KNode] = None):
        self.next = first
        self.size = size  # distinct keys spliced, not value updates
        self.hint = hint  # walk start: a node of this list, or None
        self.frozen = None


class ChildList(OneLevelBin):
    """A child list of a two-level bin: a one-level list whose ``fingers``
    hold nodes of the list in ascending key order, ending at its tail."""

    __slots__ = ("fingers",)

    def __init__(self, first: Any, fingers: list[KNode]):
        super().__init__(first, len(fingers), fingers[-1] if fingers else None)
        self.fingers = fingers


class TwoLevelBin(BenchReads):
    """F child lists behind F-1 immutable separators.

    Child i owns keys in (keys[i-1], keys[i]]; the last child is unbounded
    above.  Each child counts its own splices; size totals them.  The bin's
    freeze word guards every child list.
    """

    __slots__ = ("keys", "children", "size", "frozen")
    is_one_level = False

    def __init__(self, keys: list[int], children: list[ChildList], size: int):
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
    node = KNode(key, AtomicRef(ver))
    return OneLevelBin(node, 1, node), ver


_item = attrgetter("item")


def _olb_seek(olb: OneLevelBin, key: int, pred: Any = None) -> tuple[Any, Any]:
    """``(pred, node)``: the first node at or after the start whose key is
    >= ``key``, or END, and the node or list before it.

    Starts after ``pred``, or after the hint when the hint is below
    ``key``, or else after the greatest finger below ``key``, or else at
    the first node.  The freeze word is not checked."""
    if pred is None:
        hint = olb.hint
        if hint is not None and hint.item < key:
            pred = hint
        else:
            fingers = olb.fingers
            i = bisect_left(fingers, key, key=_item) if fingers else 0
            pred = fingers[i - 1] if i else olb
    node = pred.next
    while node.item < key:
        pred = node
        node = node.next
    return pred, node


def _olb_insert(owner: Any, olb: OneLevelBin, key: int, value: int,
                clock: GlobalClock):
    """True/False per the map contract, or UNDER_MAKE_MODEL.

    A key already in ``olb`` gets a chain write, frozen or not; a new key
    is spliced after the node or list the walk stopped behind, guarded by
    ``owner``, the bin that owns the list.  A splice that fails on a
    frozen owner bounces; one that loses to another splice walks on from
    the same predecessor, so a storm of inserts makes progress without
    restarting.  The new key's node is made once per call, and only a
    successful splice links it.
    """
    pred, node = _olb_seek(olb, key)
    new = None
    while True:
        if node.item == key:
            return write_value(node.version, value, clock)
        if new is None:
            fresh = VersionedValue(value)
            new = KNode(key, AtomicRef(fresh))
        if splice(owner, olb, pred, node, new):
            # stamp before reporting success: an unstamped splice could be
            # assigned a too-new time by a later scan and vanish from
            # snapshots that must include it
            fresh.stamp(clock)
            return True
        if owner.frozen is not None:
            return UNDER_MAKE_MODEL
        pred, node = _olb_seek(olb, key, pred)


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
    node = _olb_seek(_list_for(bin_, key), key)[1]
    return node if node.item == key else None


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
    if hi is None:
        hi = KEY_MAX
    for lst in lists:
        node = lst.next if lo is None else _olb_seek(lst, lo)[1]
        while node.item <= hi:
            ref = node.version
            ver = ref.value
            if UNSET_TS < ver.ts <= ts:
                val = ver.val
            else:
                val = read_value_at(ref, ts, clock)
            if val is not None:
                out.append((node.item, val))
            node = node.next
        if node is not END:
            return


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
        node = lst.next
        while node is not END:
            keys.append(node.item)
            versions.append(node.version)
            node.version.value.stamp(clock)
            node = node.next
    return keys, versions


def _olb_from_sorted(keys: list[int], versions: list[AtomicRef]) -> ChildList:
    """A fresh child list over the keys: every node a finger, its tail the
    hint."""
    node = END
    fingers = []
    for item, ver in zip(reversed(keys), reversed(versions)):
        node = KNode(item, ver, node)
        fingers.append(node)
    fingers.reverse()
    return ChildList(node, fingers)


def olb_to_tlb(keys: list[int], versions: list[AtomicRef],
               fanout: int) -> TwoLevelBin:
    """A fresh two-level bin over the collected keys and version chains of a
    frozen one-level bin.

    Keys are dealt out ceil-first (the first n mod F children get one
    extra), separators are each child's last key.  Child lists are rebuilt
    with fresh nodes but REUSE the version-chain heads,
    so writers still holding the old bin update the same chains the new bin
    reads."""
    n = len(keys)
    assert n > 0, "cannot split an empty bin"
    q, r = divmod(n, fanout)
    children: list[ChildList] = []
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
