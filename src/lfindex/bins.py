"""Lock-free bins: copy-on-write sorted arrays that absorb writes between
retrains.

A bin is one sorted list.  Its one field of keys, ``items``, is a flat
array: its n sorted keys, then their n chain heads, so the head of
``items[i]`` is ``items[n + i]``.  The keys of an array never change once
a bin holds it: an insert copies it, adds its key and head, and publishes
the copy with ``core.splice``, and an overwrite or delete stores a new
head in place with ``core.write_head``.  A new head carries the clock's
reading, which the step that publishes it compares (the clock rule, in
``core``).  A reader loads ``items`` once and bisects ``items[0:n]``; a
key in the array it loaded is in every array the bin holds later.  Keys
are never removed: deletion writes an Absent version, so a bin holds
``len(items) >> 1`` keys.  After construction every write to a bin, its
array and its ``writes``, is inside its ``core.splice`` or
``core.write_head``.

This module is mechanism only: bins, splices, head writes, freeze,
collect and scan.  When a bin is full is decided by the index from its
IndexConfig.

The freeze rule and the reads through frozen structures are stated once,
in ``core``: once a bin is frozen nothing in it changes, so a write that
meets a frozen bin, a new key or an existing one, returns
UNDER_MAKE_MODEL for the caller to help retrain and retry.  A bin freezes
in one step, ``core.freeze``.  Every retrain and compaction reuses the
collected chain heads.  A find or delete that finds no key is linearized
at seek's load of the bin's slot: a bin only gains keys, so a key in the
bin then would have been found.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from .core import (
    BenchReads,
    GlobalClock,
    VersionedValue,
    freeze,
    read_value_at,
    splice,
    write_version,
)


class _UnderMakeModel:
    __slots__ = ()

    def __repr__(self):
        return "UNDER_MAKE_MODEL"


#: Returned by an insert or delete iff its write met a frozen bin; the bin
#: is being retrained and the caller should help finish the replacement.
UNDER_MAKE_MODEL = _UnderMakeModel()


class OneLevelBin(BenchReads):
    """A sorted array and its freeze word: None, or True once frozen.
    ``items`` holds the keys, then their chain heads; ``writes`` counts the
    head writes into it."""

    __slots__ = ("items", "writes", "frozen")
    #: Read only by ``lfbench/layers.py``, until ROADMAP item 1: every bin
    #: is one sorted array.
    is_one_level = True

    def __init__(self, items: list):
        self.items = items
        self.writes = 0
        self.frozen = None


class TwoLevelBin(BenchReads):
    """No bin is ever one.  The name is read only by ``lfbench/layers.py``,
    which counts bins of this class, until ROADMAP item 1."""

    __slots__ = ()


def bin_new(key: int, value: int, t: int) -> OneLevelBin:
    """Fresh bin holding a single (key, value) pair, whose version carries
    the clock reading ``t`` that the ``dcss`` publishing the bin compares."""
    return OneLevelBin([key, VersionedValue(value, t)])


def insert_bin(bin_: OneLevelBin, key: int, value: int, clock: GlobalClock):
    """Insert or update ``key`` in ``bin_``; True/False per the map
    contract, or UNDER_MAKE_MODEL.

    A key already in the bin gets a head write; a new key goes into a copy
    of the array, with a head stamped with the clock's reading, which
    ``core.splice`` publishes.  A write that fails on a frozen bin bounces;
    one that loses to another write or splice, or to a bump of the clock,
    reads the newer array and the clock again and tries again.  The new
    key's head is made once per clock reading, and only a successful
    splice publishes it.
    """
    fresh = None
    while True:
        writes = bin_.writes  # read before the copy: see core.splice
        items = bin_.items
        n = len(items) >> 1
        i = bisect_left(items, key, 0, n)
        if i < n and items[i] == key:
            res = write_version(bin_, items, n + i, value, clock, bin_)
            if res is not None:
                return res
        else:
            t = clock.now.value
            if fresh is None or fresh.ts is not t:
                fresh = VersionedValue(value, t)
            new = items.copy()
            new.insert(n + i, fresh)
            new.insert(i, key)
            if splice(bin_, items, writes, new, clock, t):
                return True
        if bin_.frozen is not None:
            return UNDER_MAKE_MODEL


def delete_bin(bin_: OneLevelBin, key: int, clock: GlobalClock):
    """True if ``key`` was present (its chain now ends in an Absent
    version), False if not, or UNDER_MAKE_MODEL when the write met a
    frozen bin."""
    while True:
        items = bin_.items
        n = len(items) >> 1
        i = bisect_left(items, key, 0, n)
        if i == n or items[i] != key:
            return False
        res = write_version(bin_, items, n + i, None, clock, bin_)
        if res is not None:
            return res
        if bin_.frozen is not None:
            return UNDER_MAKE_MODEL


def search_bin(bin_: OneLevelBin, key: int) -> Optional[VersionedValue]:
    """The chain head of ``key`` if spliced, frozen or not, else None.
    Read-only."""
    items = bin_.items
    n = len(items) >> 1
    i = bisect_left(items, key, 0, n)
    return items[n + i] if i < n and items[i] == key else None


def scan_bin(bin_: OneLevelBin, lo: Optional[int], hi: Optional[int], ts: int,
             out: list) -> None:
    """Append (key, value-at-ts) pairs with lo <= key <= hi, ascending.

    A bound of None excludes nothing: with ``lo`` None the bin is read
    from its first key, with ``hi`` None to its last, and with both the
    whole bin is read, which a range scan does for a bin wholly inside its
    range.  Ignores the freeze word; skips keys deleted at ts or younger
    than ts.  A head no newer than ts is read inline, as in ``rangescan``,
    which also applies any result cap."""
    items = bin_.items
    n = len(items) >> 1
    i = 0 if lo is None else bisect_left(items, lo, 0, n)
    end = n if hi is None else bisect_right(items, hi, 0, n)
    while i < end:
        ver = items[n + i]
        val = ver.val if ver.ts <= ts else read_value_at(ver.vnext, ts)
        if val is not None:
            out.append((items[i], val))
        i += 1


def freeze_bin(bin_: OneLevelBin) -> None:
    """Set the bin's freeze word: one ``core.freeze``, idempotent, after
    which no splice or head write into it succeeds."""
    freeze(bin_, True)


def collect_frozen(bin_: OneLevelBin) -> tuple[list[int], list[VersionedValue]]:
    """Keys and version-chain heads of a frozen bin, in key order.

    Deleted keys are retained (their latest payload is Absent)."""
    assert bin_.frozen is not None, "collect requires a frozen bin"
    items = bin_.items
    n = len(items) >> 1
    return items[:n], items[n:]
