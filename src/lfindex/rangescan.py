"""Snapshot range scans.

A scan takes one logical timestamp up front (read-and-bump, so later
writers stamp strictly after it), then walks the structure in key order
reading each version chain as of that time.  Bins and model nodes, frozen
or not, are read through whatever reference the walk loaded: replaced bins
and compacted subtrees share their version chains with their replacement,
so the payloads agree.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from .core import KEY_MAX, TOMBSTONE, GlobalClock, read_value_at
from .bins import scan_bin


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
    """In-order walk of a model node's subtree restricted to [lo, hi].

    Children interleave with keys (child i sits below key i), so scanning
    child i between keys i-1 and i yields globally ascending output.  A
    nested model node pauses its parent on an explicit stack of (node, key
    index, last slot) frames, so nothing recurses however deep the tree.
    A nested node has ``node``'s class (this module cannot import
    ``index``).  Each child slot is loaded exactly once."""
    node_cls = node.__class__
    stack = []
    i = bisect_left(node.keys, lo)
    b = bisect_right(node.keys, hi)
    while True:
        keys = node.keys
        children = node.children
        versions = node.versions
        for j in range(i, b + 1):  # child slot j, then key j
            if limit is not None and len(out) >= limit:
                return
            child = children[j].load()
            if child is not None:
                if child.__class__ is node_cls:
                    stack.append((node, j, b))
                    node = child
                    i = bisect_left(node.keys, lo)
                    b = bisect_right(node.keys, hi)
                    break
                scan_bin(child, lo, hi, ts, out, clock, limit)
                if limit is not None and len(out) >= limit:
                    return
            if j < b:
                val = read_value_at(versions[j], ts, clock)
                if val is not None and val is not TOMBSTONE:
                    out.append((keys[j], val))
        else:
            if not stack:
                return
            node, j, b = stack.pop()  # child j is done: key j comes next
            if j < b:
                val = read_value_at(node.versions[j], ts, clock)
                if val is not None and val is not TOMBSTONE:
                    out.append((node.keys[j], val))
            i = j + 1
