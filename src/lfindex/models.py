"""Linear rank models: fitting, segmentation, bounded search.

A model approximates the rank of a key within one sorted key array:
rank ~= a*key + b, with eps the measured worst-case absolute error over the
fitted keys.  Every node's segments are ``segment_root`` under
``eps_target``: a piecewise model, a list of ``Segment``s, each one's eps at
most the target.  ``search_root`` finds a key within eps of its segment's
prediction, in every node.

Fits accumulate their moment sums as exact Python ints (63-bit keys squared
overflow float64's mantissa badly enough to corrupt slopes on narrow
high-magnitude clusters) and convert to float64 once, as ratios.
eps is then measured over the rounded float coefficients themselves, so the
error bound holds by construction despite the rounding.

A segmentation is a pure function of the key array and ``eps_target``,
which makes the concurrent publish trivial to reason about: every helper
computes the identical model, so whichever CAS wins publishes the same bits.
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


def _prefix_sums(keys: Sequence[int]) -> tuple:
    # exact running sums of k, k*k and i*k as Python ints, plus float64
    # keys and ranks for the vectorised residual
    n = len(keys)
    px = [0] * (n + 1)
    pxx = [0] * (n + 1)
    pxy = [0] * (n + 1)
    ax = axx = axy = 0
    for i, k in enumerate(keys):
        ax += k
        axx += k * k
        axy += i * k
        px[i + 1] = ax
        pxx[i + 1] = axx
        pxy[i + 1] = axy
    return (px, pxx, pxy, np.asarray(keys, dtype=np.float64),
            np.arange(n, dtype=np.float64))


def _fit(px, pxx, pxy, keys_f, ranks_f, s: int, e: int) -> Model:
    """Least-squares line through keys[s:e] against local ranks 0..m-1,
    from exact prefix sums.

    Zero key variance (a single key, or all keys equal) gives the zero
    line, whose eps then covers every local rank.
    """
    m = e - s
    sx = px[e] - px[s]
    sxx = pxx[e] - pxx[s]
    sxy = (pxy[e] - pxy[s]) - s * sx
    sy = m * (m - 1) // 2
    den = m * sxx - sx * sx
    if den == 0:
        a = b = 0.0
    else:
        num = m * sxy - sx * sy
        a = num / den
        b = (sy * den - num * sx) / (m * den)
    d = a * keys_f[s:e] + b - ranks_f[:m]
    return Model(a, b, float(np.max(np.abs(d))))


def fit_linear(keys: Sequence[int]) -> Model:
    """Least-squares line through (key, rank) for ranks 0..n-1."""
    n = len(keys)
    if n == 0:
        raise ValueError("cannot fit an empty key array")
    return _fit(*_prefix_sums(keys), 0, n)


def segment_root(keys: Sequence[int], eps_target: float = DEFAULT_EPS_TARGET) -> list[Segment]:
    """Greedy left-to-right split into maximal eps_target-respecting pieces.

    Each segment is the longest prefix of the remaining keys whose own
    least-squares fit stays within eps_target; found by doubling probe plus
    binary search on the prefix length.  Every probe is the same ``_fit``
    that ``fit_linear`` runs, so a segment's model equals ``fit_linear``
    over its slice bit for bit.
    """
    if not eps_target > 0:
        raise ValueError("eps_target must be positive")
    n = len(keys)
    if n == 0:
        return []
    sums = _prefix_sums(keys)

    segments: list[Segment] = []
    s = 0
    while s < n:
        limit = n - s
        good = 1
        best = Model(0.0, 0.0, 0.0)  # one key always fits exactly
        bad = None
        L = 2
        while bad is None and L < limit:
            c = _fit(*sums, s, s + L)
            if c.eps <= eps_target:
                good, best = L, c
                L <<= 1
            else:
                bad = L
        if bad is None and limit > good:
            c = _fit(*sums, s, n)
            if c.eps <= eps_target:
                good, best = limit, c
            else:
                bad = limit
        while bad is not None and bad - good > 1:
            mid = (good + bad) // 2
            c = _fit(*sums, s, s + mid)
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
