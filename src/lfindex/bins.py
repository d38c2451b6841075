"""Lock-free bins: copy-on-write sorted arrays that absorb writes between
retrains.

A one-level bin is one sorted list.  A two-level bin fans the key space out
over a fixed array of child lists behind immutable separators.  A list's
one field of keys, ``items``, is a flat array: its n sorted keys, then their
n chain heads, so the head of ``items[i]`` is ``items[n + i]``.  An array is
never changed once a list holds it: an insert copies it, adds its key and
head, and publishes the copy with ``core.splice``, which stores it only if
the list still holds the array copied and its bin is not frozen.  A reader
loads ``items`` once and bisects ``items[0:n]``; a key in the array it
loaded is in every array the list holds later.  Keys are never removed:
deletion writes an Absent version.  After construction every write to a
list, its array and its counts, is inside that list's ``core.splice``.

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
- A list only gains keys.  A splice that fails on a frozen bin returns
  UNDER_MAKE_MODEL for the caller to help retrain; that bounce is the
  only one.  An install that fails on a frozen node, like a rebuild
  whose slot sits in one, finishes the compaction that froze the node
  (``index.LearnedIndex.help_compact``) and builds nothing of its own.
- Every OLB->TLB split, retrain and compaction reuses the collected chain
  heads, so each key has exactly one version chain however many structures
  have held it.  An overwrite or delete of a key found in a frozen list
  therefore writes that chain, and every later structure reads it.
- A find or delete that finds no key is linearized at seek's load of the
  bin's slot: a list only gains keys, so a key in the list then would
  have been found.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Optional

from .core import (
    AtomicRef,
    BenchReads,
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


class OneLevelBin(BenchReads):
    """A sorted list and its freeze word: None, or True once frozen (the
    child lists of a two-level bin keep None).  ``items`` holds the keys,
    then their chain heads."""

    __slots__ = ("items", "size", "frozen")
    is_one_level = True

    def __init__(self, items: list):
        self.items = items
        self.size = len(items) >> 1  # distinct keys spliced, not value updates
        self.frozen = None


class TwoLevelBin(BenchReads):
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
    return OneLevelBin([key, AtomicRef(ver)]), ver


def list_for(bin_: Any, key: int) -> OneLevelBin:
    """The list that owns ``key``: a one-level bin itself, or the child of a
    two-level bin picked by its separators."""
    if bin_.is_one_level:
        return bin_
    return bin_.children[bisect_left(bin_.keys, key)]


def _lists(bin_: Any):
    """Every list of a bin, in key order."""
    return (bin_,) if bin_.is_one_level else bin_.children


def insert_bin(bin_: Any, lst: OneLevelBin, key: int, value: int,
               clock: GlobalClock):
    """Insert or update ``key`` in ``lst``, the list of ``bin_`` that owns
    it; True/False per the map contract, or UNDER_MAKE_MODEL.

    A key already in the list gets a chain write, frozen or not; a new key
    goes into a copy of the array, which ``core.splice`` publishes.  A
    splice that fails on a frozen bin bounces; one that loses to another
    splice copies the newer array and tries again.  The new key's head is
    made once per call, and only a successful splice publishes it.
    """
    ref = None
    while True:
        items = lst.items
        n = len(items) >> 1
        i = bisect_left(items, key, 0, n)
        if i < n and items[i] == key:
            return write_value(items[n + i], value, clock)
        if ref is None:
            fresh = VersionedValue(value)
            ref = AtomicRef(fresh)
        new = items.copy()
        new.insert(n + i, ref)
        new.insert(i, key)
        if splice(bin_, lst, items, new):
            # stamp before reporting success: an unstamped splice could be
            # assigned a too-new time by a later scan and vanish from
            # snapshots that must include it
            fresh.stamp(clock)
            return True
        if bin_.frozen is not None:
            return UNDER_MAKE_MODEL


def delete_bin(bin_: Any, key: int, clock: GlobalClock) -> bool:
    """True if ``key`` was present; its chain gets an Absent version, frozen
    or not."""
    ref = search_bin(bin_, key)
    return ref is not None and write_value(ref, None, clock)


def search_bin(bin_: Any, key: int) -> Optional[AtomicRef]:
    """The chain head of ``key`` if spliced, frozen or not, else None.
    Read-only."""
    items = list_for(bin_, key).items
    n = len(items) >> 1
    i = bisect_left(items, key, 0, n)
    return items[n + i] if i < n and items[i] == key else None


def scan_bin(bin_: Any, lo: Optional[int], hi: Optional[int], ts: int,
             out: list, clock: GlobalClock) -> None:
    """Append (key, value-at-ts) pairs with lo <= key <= hi, ascending.

    A bound of None excludes nothing: with ``lo`` None each list is read
    from its first key, with ``hi`` None to its last, and with both the
    whole bin is read, which a range scan does for a bin wholly inside its
    range.  Ignores the freeze word; skips keys deleted at ts or younger
    than ts.  A stamped head no newer than ts is read inline, as in
    ``rangescan``, which also applies any result cap."""
    if bin_.is_one_level:
        lists = (bin_,)
    else:  # the children owning lo through hi
        seps = bin_.keys
        first = 0 if lo is None else bisect_left(seps, lo)
        last = len(seps) if hi is None else bisect_left(seps, hi)
        lists = bin_.children[first:last + 1]
    for lst in lists:
        items = lst.items
        n = len(items) >> 1
        i = 0 if lo is None else bisect_left(items, lo, 0, n)
        end = n if hi is None else bisect_right(items, hi, 0, n)
        while i < end:
            ref = items[n + i]
            ver = ref.value
            if UNSET_TS < ver.ts <= ts:
                val = ver.val
            else:
                val = read_value_at(ref, ts, clock)
            if val is not None:
                out.append((items[i], val))
            i += 1


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
        items = lst.items
        n = len(items) >> 1
        keys += items[:n]
        heads = items[n:]
        versions += heads
        for ref in heads:
            ref.value.stamp(clock)
    return keys, versions


def olb_to_tlb(keys: list[int], versions: list[AtomicRef],
               fanout: int) -> TwoLevelBin:
    """A fresh two-level bin over the collected keys and version chains of a
    frozen one-level bin.

    Keys are dealt out ceil-first (the first n mod F children get one
    extra), separators are each child's last key.  Child lists are fresh
    arrays but REUSE the version-chain heads, so writers still holding the
    old bin update the same chains the new bin reads."""
    n = len(keys)
    assert n > 0, "cannot split an empty bin"
    q, r = divmod(n, fanout)
    children: list[OneLevelBin] = []
    seps: list[int] = []
    pos = 0
    for i in range(fanout):
        take = q + 1 if i < r else q
        children.append(OneLevelBin(keys[pos:pos + take] + versions[pos:pos + take]))
        pos += take
        if i < fanout - 1:
            # an empty tail child inherits the running last key
            seps.append(keys[pos - 1])  # pos > 0: n > 0 gives child 0 a key
    return TwoLevelBin(seps, children, n)
