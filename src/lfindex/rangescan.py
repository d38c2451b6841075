"""Snapshot range scans.

A scan takes one logical timestamp up front (read-and-bump, so later
writers stamp strictly after it), then walks the structure in key order
reading each version chain as of that time.  Bins and model nodes, frozen
or not, are read through whatever reference the walk loaded: replaced bins
and compacted subtrees share their version chains with their replacement,
so the payloads agree.

Two facts let the walk read most pairs without a call:

- A chain head whose ``ts`` is set and ``<= ts`` is what ``read_value_at``
  would return at its first step, so the scan reads its payload inline and
  calls ``read_value_at``, the one chain walk, only for an unstamped head or
  one written after the scan's clock read.
- Routing puts every key of child slot j strictly between keys j-1 and j,
  so when both lie in ``[lo, hi]`` the whole child does: only the first and
  the last slot of a node's window can hold keys outside it, and a bin or
  nested node anywhere else is walked with no bound.

A chain walk answers the payload at ``ts`` or None, and None is skipped,
whether the key was deleted then or had no version yet.  ``scan`` alone
applies the result cap.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from typing import Optional

from .core import EMPTY, UNSET_TS, GlobalClock, range_bounds, read_value_at
from .bins import scan_bin


def range_search(index, key: int, width: int,
                 max_results: Optional[int] = None) -> list[tuple[int, int]]:
    """Live pairs in ``core.range_bounds``' window as of one logical instant,
    ascending; with ``max_results`` set, the scan stops once it holds that
    many pairs."""
    key, hi, max_results = range_bounds(key, width, max_results)
    ts = index.clock.read_and_bump()
    out: list[tuple[int, int]] = []
    scan(index.root, key, hi, ts, out, index.clock, max_results)
    return out


def scan(node, lo: int, hi: int, ts: int, out: list,
         clock: GlobalClock, limit: Optional[int] = None) -> None:
    """In-order walk of a model node's subtree restricted to [lo, hi].

    Children interleave with keys (child i sits below key i), so scanning
    child i between keys i-1 and i yields globally ascending output.  A
    nested model node pauses its parent on an explicit stack of (node, slot,
    last slot, hi) frames, so nothing recurses however deep the tree; the
    parent resumes at key ``slot`` and does not visit that slot again.  A
    nested node has ``node``'s class (this module cannot import ``index``).
    An empty slot is skipped by identity with ``EMPTY``; any other slot
    holds a bin or a node and is loaded exactly once.  Inside a node,
    ``lo`` or ``hi`` is None once it cannot exclude any of its keys.

    ``limit`` caps ``out``, and this is the one place a cap is applied: a
    bin is read to its end and the pairs past the cap are cut, so the walk
    reads at most one bin beyond it."""
    cap = sys.maxsize if limit is None else limit
    if len(out) >= cap:
        return
    node_cls = node.__class__
    stack = []
    i = bisect_left(node.keys, lo)
    b = bisect_right(node.keys, hi)
    done = -1  # a slot whose nested node has been walked
    while True:
        keys = node.keys
        children = node.children
        versions = node.versions
        for j in range(i, b + 1):  # child slot j, then key j
            child = children[j]
            if child is not EMPTY and j != done:
                # only the window's first and last slots can reach past it
                clo = lo if j == i else None
                chi = hi if j == b else None
                if child.__class__ is node_cls:
                    stack.append((node, j, b, hi))
                    node, lo, hi, done = child, clo, chi, -1
                    i = 0 if lo is None else bisect_left(node.keys, lo)
                    b = len(node.keys) if hi is None else bisect_right(node.keys, hi)
                    break
                scan_bin(child, clo, chi, ts, out, clock)
                if len(out) >= cap:  # a bin reads to its end
                    del out[cap:]
                    return
            if j < b:
                ref = versions[j]
                ver = ref.value
                if UNSET_TS < ver.ts <= ts:
                    val = ver.val
                else:
                    val = read_value_at(ref, ts, clock)
                if val is not None:
                    out.append((keys[j], val))
                    if len(out) >= cap:
                        return
        else:
            if not stack:
                return
            # no slot after the resumed one is its window's first, so
            # nothing below lo is left in the node
            node, i, b, hi = stack.pop()
            lo = None
            done = i
