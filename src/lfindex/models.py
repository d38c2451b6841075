"""Linear rank models: fitting, segmentation, bounded search.

A model approximates the rank of a key within one sorted key array:
rank ~= a*key + b, with eps the measured worst-case absolute error over the
fitted keys.  Every node's segments are ``segment_root`` under
``eps_target``: a piecewise model, a list of ``Segment``s, each one's eps at
most the target.  ``search_root`` finds a key within eps of its segment's
prediction, in every node.

Keys are sorted ints in [0, 2**64); a key outside raises ValueError.  A
fit is one numpy probe: a centred least-squares line over the keys'
offsets from the slice's first key, exact in uint64 and then cast to
float64 (so a narrow cluster of high keys keeps the low bits its absolute
float64 keys round away), with the intercept folded back to absolute keys.
The float line is only near the exact one, which the bound never needs:
eps is measured over the final float coefficients on the float64 keys a
search multiplies, so every segment is within eps by construction.

A segmentation is a pure function of the key array and ``eps_target`` (a
probe's elementwise arithmetic and numpy reductions depend only on the
values and their count), which makes the concurrent publish trivial to
reason about: every helper computes the identical model, so whichever CAS
wins publishes the same bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_EPS_TARGET = 32.0


class Model(NamedTuple):
    a: float
    b: float
    eps: float


class Segment(NamedTuple):
    """One piece of a model node's piecewise-linear model."""

    start_key: int
    start_index: int
    model: Model


def _arrays(keys: Sequence[int]) -> tuple:
    # made once per key array: keys as uint64 and as float64, and a work
    # array whose row 0 takes a probe's offsets and row 1 holds the ranks;
    # numpy wraps a negative numpy integer into uint64 where a negative int
    # overflows, so the least key, the first, is checked here
    if len(keys) and keys[0] < 0:
        raise ValueError("keys must be ints in [0, 2**64)")
    try:
        keys_u = np.asarray(keys, dtype=np.uint64)
    except OverflowError:
        raise ValueError("keys must be ints in [0, 2**64)") from None
    work = np.empty((2, len(keys_u)))
    work[1] = np.arange(len(keys_u))
    return keys_u, keys_u.astype(np.float64), work


def _fit(keys_u, keys_f, work, s: int, e: int) -> Model:
    """Least-squares line through keys[s:e] against local ranks 0..m-1,
    centred on the exact offsets from keys[s] (centred offsets sum to zero,
    so the ranks need no centring), folded back to absolute keys.  Zero key
    variance (one key, or all keys equal) gives the zero line, whose eps
    then covers every local rank.
    """
    m = e - s
    w = work[:, :m]
    x = w[0]
    x[...] = keys_u[s:e] - keys_u[s]
    mx = float(np.add.reduce(x)) / m
    x -= mx
    sxx, sxy = np.add.reduce(w * x, axis=1).tolist()
    if sxx == 0.0:
        a = b = 0.0
    else:
        a = sxy / sxx
        b = (m - 1) / 2 - a * (mx + keys_f.item(s))
    d = a * keys_f[s:e]
    d += b
    d -= w[1]
    return Model(a, b, float(np.maximum.reduce(np.abs(d, out=d))))


def fit_linear(keys: Sequence[int]) -> Model:
    """Least-squares line through (key, rank), keys in [0, 2**64)."""
    n = len(keys)
    if n == 0:
        raise ValueError("cannot fit an empty key array")
    return _fit(*_arrays(keys), 0, n)


def segment_root(keys: Sequence[int], eps_target: float = DEFAULT_EPS_TARGET) -> list[Segment]:
    """Greedy left-to-right split into maximal eps_target-respecting pieces.

    Each segment is the longest prefix of the remaining keys whose own
    least-squares fit stays within eps_target; found by doubling probe plus
    binary search on the prefix length.  Every probe is the same ``_fit``
    that ``fit_linear`` runs, so a segment's model equals ``fit_linear``
    over its slice bit for bit.  Keys are sorted ints in [0, 2**64).
    """
    if not eps_target > 0:
        raise ValueError("eps_target must be positive")
    n = len(keys)
    if n == 0:
        return []
    probe = _arrays(keys)

    segments: list[Segment] = []
    s = 0
    while s < n:
        limit = n - s
        good = 1
        best = Model(0.0, 0.0, 0.0)  # one key always fits exactly
        bad = None
        L = 2
        while bad is None and L < limit:
            c = _fit(*probe, s, s + L)
            if c.eps <= eps_target:
                good, best = L, c
                L <<= 1
            else:
                bad = L
        if bad is None and limit > good:
            c = _fit(*probe, s, n)
            if c.eps <= eps_target:
                good, best = limit, c
            else:
                bad = limit
        while bad is not None and bad - good > 1:
            mid = (good + bad) // 2
            c = _fit(*probe, s, s + mid)
            if c.eps <= eps_target:
                good, best = mid, c
            else:
                bad = mid
        segments.append(Segment(keys[s], s, best))
        s += good
    return segments


def root_table(segments: Sequence[Segment], n: int) -> tuple[list, ...]:
    """Per-segment values ``search_root`` reads, as parallel lists.

    For a model node's ``segments`` over its ``n``-key array: start keys,
    first and last key index, slope, intercept + 0.5 (the round-half-up
    offset, added once here instead of per probe) and probe window
    floor(eps) + 1.
    """
    firsts = [s.start_index for s in segments]
    lasts = [f - 1 for f in firsts[1:]] + [n - 1] if segments else []
    return ([s.start_key for s in segments], firsts, lasts,
            [s.model.a for s in segments],
            [s.model.b + 0.5 for s in segments],
            [int(s.model.eps) + 1 for s in segments])


def search_root(keys: Sequence[int], table: tuple[list, ...],
                key: int) -> tuple[int, bool]:
    """Locate ``key`` in a model node's key array via its piecewise model.

    ``table`` is ``root_table`` over the node's segments; bisecting its
    start keys picks the segment.  Returns (index, True) on an exact hit,
    else (index of the greatest key < ``key``, False), -1 when below all
    keys.  The probe window is [pred - window, pred + window] clamped to
    the segment slice, widened to the slice edge when the key falls
    outside it.
    """
    starts, firsts, lasts, slopes, intercepts, windows = table
    si = bisect_right(starts, key) - 1
    if si < 0:
        return -1, False
    lo = firsts[si]
    hi = lasts[si]
    p = lo + math.floor(slopes[si] * key + intercepts[si])
    if p < lo:
        p = lo
    elif p > hi:
        p = hi
    w = windows[si]
    wlo = p - w
    if wlo < lo:
        wlo = lo
    whi = p + w
    if whi > hi:
        whi = hi
    if key < keys[wlo]:
        blo, bhi = lo, wlo
    elif key > keys[whi]:
        blo, bhi = whi, hi
    else:
        blo, bhi = wlo, whi
    i = bisect_left(keys, key, blo, bhi + 1)
    if i <= bhi and keys[i] == key:
        return i, True
    return i - 1, False


#: Non-root nodes are searched the same way; the second name lets a tracer
#: time their locates apart from the root's.
search_nonroot = search_root
