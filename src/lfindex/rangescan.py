"""Snapshot range scans.

A scan takes one logical timestamp up front (read-and-bump, so later
writers stamp strictly after it), then walks the structure in key order
reading each version chain as of that time.  Bins are read through
whatever reference the walk loaded, frozen or not: replaced bins share
their version chains with their replacement, so the payloads agree.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from .core import KEY_MAX, TOMBSTONE, GlobalClock, read_value_at
from .bins import OneLevelBin, TwoLevelBin, scan_bin


def range_search(index, key: int, width: int,
                 max_results: Optional[int] = None) -> list[tuple[int, int]]:
    """Live pairs with key <= k <= key+width as of one logical instant.

    The interval saturates at the top of the key domain.  ``max_results``
    caps the result length (None = unbounded); the scan stops early once
    the cap is hit, keeping the ascending prefix.
    """
    if width < 0:
        raise ValueError("range width must be >= 0")
    if not 0 <= key <= KEY_MAX:
        raise ValueError("key outside the 63-bit domain")
    if max_results is not None and max_results < 0:
        raise ValueError("max_results must be >= 0 or None")
    ts = index.clock.read_and_bump()
    hi = key + width
    if hi > KEY_MAX:
        hi = KEY_MAX
    out: list[tuple[int, int]] = []
    if max_results == 0:
        return out
    scan(index.root, key, hi, ts, out, index.clock, max_results)
    return out


def scan(node, lo: int, hi: int, ts: int, out: list,
         clock: GlobalClock, limit: Optional[int] = None) -> None:
    """In-order walk of a model node restricted to [lo, hi].

    Children interleave with keys (child i sits below key i), so appending
    child scans between key reads yields globally ascending output.  Each
    child slot is loaded exactly once."""
    keys = node.keys
    a = bisect_left(keys, lo)
    b = bisect_right(keys, hi)
    children = node.children
    versions = node.versions
    for i in range(a, b):
        if limit is not None and len(out) >= limit:
            return
        child = children[i].load()
        if child is not None:
            _scan_child(child, lo, hi, ts, out, clock, limit)
            if limit is not None and len(out) >= limit:
                return
        val = read_value_at(versions[i], ts, clock)
        if val is not None and val is not TOMBSTONE:
            out.append((keys[i], val))
    if limit is not None and len(out) >= limit:
        return
    child = children[b].load()
    if child is not None:
        _scan_child(child, lo, hi, ts, out, clock, limit)


def _scan_child(child, lo, hi, ts, out, clock, limit) -> None:
    if isinstance(child, (OneLevelBin, TwoLevelBin)):
        scan_bin(child, lo, hi, ts, out, clock, limit)
    else:
        scan(child, lo, hi, ts, out, clock, limit)
