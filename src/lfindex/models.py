"""Linear rank models: fitting, segmentation, bounded search.

A model approximates the rank of a key within one sorted key array:
rank ~= a*key + b, with eps the measured worst-case absolute error over the
fitted keys.  Every node's segments are ``segment_root`` under
``eps_target``: a piecewise model, a list of ``Segment``s, each one's eps at
most the target.  ``search_root`` bisects only a window around its
segment's rounded, clamped prediction, in every node.

The window is measured, not derived from eps: it is the largest distance
between a key's index and the prediction ``search_root`` itself computes for
that key, float for float.  A slope is never negative, so the prediction
never falls as the key rises, and every key, present or absent, has its
insertion point within the window (argument on ``search_root``).  The
structural audit checks that no window is wider than int(eps) + 1, so eps
still bounds the work.

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
    """One piece of a model node's piecewise-linear model, and its measured
    window: the largest distance between a key's index and its rounded,
    clamped prediction (``measure_segments``)."""

    start_key: int
    start_index: int
    model: Model
    window: int


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
        # sorted keys give sxy >= 0; the clamp keeps rounding from ever
        # making a negative slope, which the locate window rules out
        a = max(sxy, 0.0) / sxx
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
    over its slice bit for bit.  The windows are then measured over the
    same float64 keys the probes used: the keys are converted once.  Keys
    are sorted ints in [0, 2**64).
    """
    if not eps_target > 0:
        raise ValueError("eps_target must be positive")
    n = len(keys)
    if n == 0:
        return []
    probe = _arrays(keys)

    pieces: list[tuple[int, Model]] = []
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
        pieces.append((s, best))
        s += good
    return _measured(keys, probe[1], probe[2][1], pieces)


def _measured(keys: Sequence[int], keys_f, ranks,
              pieces: Sequence[tuple[int, Model]]) -> list[Segment]:
    """Segments for (start index, model) pieces that tile ``keys``, each
    window measured in one vectorised pass over every key: the prediction
    ``search_root`` makes (slope times the float key, plus intercept + 0.5,
    floored, clamped to the slice), minus the key's local index."""
    if not pieces:
        return []
    firsts = np.array([f for f, _ in pieces], dtype=np.intp)
    sizes = np.diff(firsts, append=len(keys_f))
    slope = np.repeat([m.a for _, m in pieces], sizes)
    p = slope * keys_f
    p += np.repeat([m.b + 0.5 for _, m in pieces], sizes)
    np.floor(p, out=p)
    np.clip(p, 0.0, np.repeat(sizes - 1, sizes).astype(np.float64), out=p)
    p -= ranks
    p += np.repeat(firsts, sizes)
    np.abs(p, out=p)
    windows = np.maximum.reduceat(p, firsts).astype(np.int64).tolist()
    return [Segment(keys[f], f, m, w) for (f, m), w in zip(pieces, windows)]


def measure_segments(keys: Sequence[int],
                     pieces: Sequence[tuple[int, Model]]) -> list[Segment]:
    """Segments over sorted ``keys`` for any (start index, model) pieces
    that tile them, starting at index 0, each with its window measured as
    ``segment_root`` measures its own.  Slopes must be >= 0 for the window
    argument; ``root_table`` rejects one that is not."""
    firsts = [f for f, _ in pieces]
    if firsts != sorted(set(firsts)) or firsts[:1] != ([0] if len(keys) else []) or (
            firsts and firsts[-1] >= len(keys)):
        raise ValueError("pieces must start at index 0 and ascend within the keys")
    _, keys_f, work = _arrays(keys)
    return _measured(keys, keys_f, work[1], pieces)


def root_table(segments: Sequence[Segment], n: int) -> tuple[list, list]:
    """The values ``search_root`` reads: the start keys, and one tuple per
    segment of a model node over an ``n``-key array: (first key index,
    last key index, slope, intercept + 0.5, window).  The round-half-up
    offset is added once here instead of per locate.  Raises ValueError for
    a negative slope, which would break the window argument."""
    rows = []
    for si, s in enumerate(segments):
        a, b, _ = s.model
        if not a >= 0.0:
            raise ValueError(f"segment {si} has slope {a}: a window needs a slope >= 0")
        last = segments[si + 1].start_index - 1 if si + 1 < len(segments) else n - 1
        rows.append((s.start_index, last, a, b + 0.5, s.window))
    return [s.start_key for s in segments], rows


def search_root(keys: Sequence[int], table: tuple[list, list],
                key: int) -> tuple[int, bool]:
    """Locate ``key`` in a model node's key array via its piecewise model.

    ``table`` is ``root_table`` over the node's segments; bisecting its
    start keys picks the segment.  Returns (index, True) on an exact hit,
    else (index of the greatest key < ``key``, False), -1 when below all
    keys.  Only keys in [max(p - w, first), min(p + w + 1, last + 1)) are
    read, for the clamped prediction p and measured window w.

    Why the window holds the insertion point r of any key, present or not:
    the segment's start key is <= ``key`` and the next segment's is above
    it, so first <= r <= last + 1.  The prediction never falls as the key
    rises (slope >= 0; rounding, floor and clamp are all monotone).  So for
    r <= last, keys[r] >= key gives p <= pred(keys[r]) <= r + w, and for
    r > first, keys[r - 1] < key gives p >= pred(keys[r - 1]) >= r - 1 - w.
    A present key is at r with pred(keys[r]) = p, so r <= p + w: it is
    inside, never at the exclusive end.
    """
    starts, rows = table
    si = bisect_right(starts, key) - 1
    if si < 0:
        return -1, False
    first, last, a, c, w = rows[si]
    p = first + math.floor(a * key + c)
    if p < first:
        p = first
    elif p > last:
        p = last
    lo = p - w
    if lo < first:
        lo = first
    hi = p + w + 1
    if hi > last:
        hi = last + 1
    i = bisect_left(keys, key, lo, hi)
    if i < hi and keys[i] == key:
        return i, True
    return i - 1, False


#: Non-root nodes are searched the same way; the second name lets a tracer
#: time their locates apart from the root's.
search_nonroot = search_root
