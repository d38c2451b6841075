"""Lock-free bins: copy-on-write sorted arrays that absorb writes between
retrains.

A one-level bin is one sorted list.  A two-level bin fans the key space out
over a fixed array of child lists behind immutable separators.  A list's
one field of keys, ``items``, is a flat array: its n sorted keys, then their
n chain heads, so the head of ``items[i]`` is ``items[n + i]``.  The keys of
an array never change once a list holds it: an insert copies it, adds its
key and head, and publishes the copy with ``core.splice``, and an
overwrite or delete stores a new head in place with ``core.write_head``.
A reader loads ``items`` once and bisects ``items[0:n]``; a key in the
array it loaded is in every array the list holds later.  Keys are never
removed: deletion writes an Absent version.  After construction every
write to a list, its array, its counts and its ``writes``, is inside that
list's ``core.splice`` or ``core.write_head``.

This module is mechanism only: lists, splices, head writes, freeze,
collect, split and scan.  When a bin is full, and how wide a split is, is
decided by the index from its IndexConfig.

The freeze rule and the reads through frozen structures are stated once,
in ``core``: once a bin is frozen nothing in it changes, so a write that
meets a frozen bin, a new key or an existing one, returns
UNDER_MAKE_MODEL for the caller to help retrain and retry.  A bin freezes
in one step, ``core.freeze``; a two-level bin's word guards all its child
lists, which are reachable only through it, and a child list's own word
stays None.  Every OLB->TLB split, retrain and compaction reuses the
collected chain heads.  A find or delete that finds no key is linearized
at seek's load of the bin's slot: a list only gains keys, so a key in the
list then would have been found.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Optional

from .core import (
    BenchReads,
    GlobalClock,
    VersionedValue,
    freeze,
    read_value_at,
    splice,
    write_version,
    UNSET_TS,
)


class _UnderMakeModel:
    __slots__ = ()

    def __repr__(self):
        return "UNDER_MAKE_MODEL"


#: Returned by an insert or delete iff its write met a frozen bin; the bin
#: is being retrained and the caller should help finish the replacement.
UNDER_MAKE_MODEL = _UnderMakeModel()


class OneLevelBin(BenchReads):
    """A sorted list and its freeze word: None, or True once frozen (the
    child lists of a two-level bin keep None).  ``items`` holds the keys,
    then their chain heads; ``writes`` counts the head writes into it."""

    __slots__ = ("items", "size", "writes", "frozen")
    is_one_level = True

    def __init__(self, items: list):
        self.items = items
        self.size = len(items) >> 1  # distinct keys spliced, not value updates
        self.writes = 0
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
    return OneLevelBin([key, ver]), ver


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

    A key already in the list gets a head write; a new key goes into a copy
    of the array, which ``core.splice`` publishes.  A write that fails on a
    frozen bin bounces; one that loses to another write or splice reads the
    newer array and tries again.  The new key's head is made once per call,
    and only a successful splice publishes it.
    """
    fresh = None
    while True:
        writes = lst.writes  # read before the copy: see core.splice
        items = lst.items
        n = len(items) >> 1
        i = bisect_left(items, key, 0, n)
        if i < n and items[i] == key:
            res = write_version(bin_, items, n + i, value, clock, lst)
            if res is not None:
                return res
        else:
            if fresh is None:
                fresh = VersionedValue(value)
            new = items.copy()
            new.insert(n + i, fresh)
            new.insert(i, key)
            if splice(bin_, lst, items, writes, new):
                # stamp before reporting success: an unstamped splice could be
                # assigned a too-new time by a later scan and vanish from
                # snapshots that must include it
                fresh.stamp(clock)
                return True
        if bin_.frozen is not None:
            return UNDER_MAKE_MODEL


def delete_bin(bin_: Any, key: int, clock: GlobalClock):
    """True if ``key`` was present (its chain now ends in an Absent
    version), False if not, or UNDER_MAKE_MODEL when the write met a
    frozen bin."""
    lst = list_for(bin_, key)
    while True:
        items = lst.items
        n = len(items) >> 1
        i = bisect_left(items, key, 0, n)
        if i == n or items[i] != key:
            return False
        res = write_version(bin_, items, n + i, None, clock, lst)
        if res is not None:
            return res
        if bin_.frozen is not None:
            return UNDER_MAKE_MODEL


def search_bin(bin_: Any, key: int) -> Optional[VersionedValue]:
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
            ver = items[n + i]
            if UNSET_TS < ver.ts <= ts:
                val = ver.val
            else:
                val = read_value_at(ver, ts, clock)
            if val is not None:
                out.append((items[i], val))
            i += 1


def freeze_bin(bin_: Any) -> None:
    """Set the bin's freeze word: one ``core.freeze``, idempotent, after
    which no splice or head write into any of its lists succeeds."""
    freeze(bin_, True)


def collect_frozen(bin_: Any, clock: GlobalClock) -> tuple[list[int], list[VersionedValue]]:
    """Keys and version-chain heads of a frozen bin, in key order.

    Deleted keys are retained (their latest payload is Absent); every
    collected head gets its timestamp assigned so nothing leaves a bin
    unstamped."""
    assert bin_.frozen is not None, "collect requires a frozen bin"
    keys: list[int] = []
    versions: list[VersionedValue] = []
    for lst in _lists(bin_):
        items = lst.items
        n = len(items) >> 1
        keys += items[:n]
        heads = items[n:]
        versions += heads
        for ver in heads:
            ver.stamp(clock)
    return keys, versions


def olb_to_tlb(keys: list[int], versions: list[VersionedValue],
               fanout: int) -> TwoLevelBin:
    """A fresh two-level bin over the collected keys and version chains of a
    frozen one-level bin.

    Keys are dealt out ceil-first (the first n mod F children get one
    extra), separators are each child's last key.  Child lists are fresh
    arrays but REUSE the version-chain heads, so a key keeps one chain
    however many structures have held it."""
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
