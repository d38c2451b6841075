"""Linear rank models: fitting, segmentation, prediction, bounded search.

A model approximates the rank of a key within one sorted key array:
rank ~= a*key + b, with eps the measured worst-case absolute error over the
fitted keys.  Fits accumulate their moment sums as exact Python ints (63-bit
keys squared overflow float64's mantissa badly enough to corrupt slopes on
narrow high-magnitude clusters) and convert to float64 once, as ratios.
eps is then measured with the *same* float expression ``predict`` evaluates,
so the error bound holds by construction despite the rounded coefficients.

The fit is a pure function of the key array, which makes the concurrent
publish trivial to reason about: every helper computes the identical model,
so whichever CAS wins publishes the same bits.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

import numpy as np

from .core import AtomicRef

DEFAULT_EPS_TARGET = 32.0


class Model(NamedTuple):
    a: float
    b: float
    eps: float


class Segment(NamedTuple):
    """One piece of a piecewise-linear root model."""

    start_key: int
    start_index: int
    model: Model


def fit_linear(keys: Sequence[int]) -> Model:
    """Least-squares line through (key, rank) for ranks 0..n-1.

    Degenerate inputs: a single key fits exactly with the zero model; zero
    key variance (all keys equal) falls back to the zero model with eps
    covering every rank.
    """
    n = len(keys)
    if n == 0:
        raise ValueError("cannot fit an empty key array")
    if n == 1:
        return Model(0.0, 0.0, 0.0)
    sx = 0
    sxx = 0
    sxy = 0
    for i, k in enumerate(keys):
        sx += k
        sxx += k * k
        sxy += i * k
    sy = n * (n - 1) // 2
    den = n * sxx - sx * sx
    if den == 0:
        return Model(0.0, 0.0, float(n - 1))
    num = n * sxy - sx * sy
    a = num / den
    b = (sy * den - num * sx) / (n * den)
    eps = 0.0
    for i, k in enumerate(keys):
        r = abs(a * k + b - i)
        if r > eps:
            eps = r
    return Model(a, b, eps)


def fit_linear_published(keys: Sequence[int], helpers: int = 1) -> Model:
    """Fit with ``helpers`` concurrent threads racing to publish the result.

    Each helper computes the fit privately and tries one CAS on a shared
    slot; everyone returns whatever got published.  Because the fit is
    deterministic the outcome is bit-identical regardless of the winner.
    """
    if helpers < 1:
        raise ValueError("need at least one helper")
    slot = AtomicRef(None)
    if helpers == 1:
        slot.compare_and_swap(None, fit_linear(keys))
        return slot.load()

    def run():
        m = fit_linear(keys)
        slot.compare_and_swap(None, m)

    workers = [threading.Thread(target=run) for _ in range(helpers)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return slot.load()


def predict(model: Model, key: int) -> int:
    """Predicted rank, rounded half-up.  Callers clamp to their bounds."""
    return math.floor(model.a * key + model.b + 0.5)


def _fit_range(px, pxx, pxy, s: int, e: int) -> tuple[float, float]:
    # least squares over keys[s:e] against local ranks 0..m-1,
    # from exact prefix sums
    m = e - s
    if m == 1:
        return 0.0, 0.0
    sx = px[e] - px[s]
    sxx = pxx[e] - pxx[s]
    sxy = (pxy[e] - pxy[s]) - s * sx
    sy = m * (m - 1) // 2
    den = m * sxx - sx * sx
    if den == 0:
        return 0.0, 0.0
    num = m * sxy - sx * sy
    a = num / den
    b = (sy * den - num * sx) / (m * den)
    return a, b


def segment_root(keys: Sequence[int], eps_target: float = DEFAULT_EPS_TARGET) -> list[Segment]:
    """Greedy left-to-right split into maximal eps_target-respecting pieces.

    Each segment is the longest prefix of the remaining keys whose own
    least-squares fit stays within eps_target; found by doubling probe plus
    binary search on the prefix length.  Segment fits match ``fit_linear``
    over the same slice bit for bit (identical exact sums, identical float
    expressions), and each emitted model carries its measured eps.
    """
    if not eps_target > 0:
        raise ValueError("eps_target must be positive")
    n = len(keys)
    if n == 0:
        return []

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
    keys_f = np.asarray(keys, dtype=np.float64)
    ranks_f = np.arange(n, dtype=np.float64)  # local ranks reuse the prefix

    def fit_eps(s: int, L: int) -> tuple[float, float, float]:
        a, b = _fit_range(px, pxx, pxy, s, s + L)
        d = a * keys_f[s:s + L] + b - ranks_f[:L]
        return a, b, float(np.max(np.abs(d)))

    segments: list[Segment] = []
    s = 0
    while s < n:
        limit = n - s
        good = 1
        best = (0.0, 0.0, 0.0)  # one key always fits exactly
        bad = None
        L = 2
        while bad is None and L < limit:
            c = fit_eps(s, L)
            if c[2] <= eps_target:
                good, best = L, c
                L <<= 1
            else:
                bad = L
        if bad is None and limit > good:
            c = fit_eps(s, limit)
            if c[2] <= eps_target:
                good, best = limit, c
            else:
                bad = limit
        while bad is not None and bad - good > 1:
            mid = (good + bad) // 2
            c = fit_eps(s, mid)
            if c[2] <= eps_target:
                good, best = mid, c
            else:
                bad = mid
        segments.append(Segment(keys[s], s, Model(*best)))
        s += good
    return segments


def root_table(segments: Sequence[Segment], n: int) -> tuple[list, ...]:
    """Per-segment values ``search_root`` reads, as parallel lists.

    For ``segments`` over an ``n``-key array: start keys, first and last key
    index, slope, intercept + 0.5 (the round-half-up offset, added once
    here instead of per probe) and probe window floor(eps) + 1.
    """
    firsts = [s.start_index for s in segments]
    lasts = [f - 1 for f in firsts[1:]] + [n - 1] if segments else []
    return ([s.start_key for s in segments], firsts, lasts,
            [s.model.a for s in segments],
            [s.model.b + 0.5 for s in segments],
            [int(s.model.eps) + 1 for s in segments])


def search_root(keys: Sequence[int], table: tuple[list, ...],
                key: int) -> tuple[int, bool]:
    """Locate ``key`` in the root key array via its piecewise model.

    ``table`` is ``root_table`` over the root's segments; bisecting its
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


def search_nonroot(keys: Sequence[int], model: Model, key: int) -> tuple[int, bool]:
    """Locate ``key`` via a single model plus galloping around the prediction.

    No error bound needed: from the clamped predicted position, exponential
    probes bracket the key, then a bounded bisect finishes.  Same return
    convention as ``search_root``.
    """
    n = len(keys)
    if n == 0:
        return -1, False
    p = math.floor(model.a * key + model.b + 0.5)
    if p < 0:
        p = 0
    elif p >= n:
        p = n - 1
    kp = keys[p]
    if kp == key:
        return p, True
    if kp < key:
        lo, step = p, 1
        while True:
            hi = lo + step
            if hi >= n:
                hi = n
                break
            if keys[hi] >= key:
                break
            lo = hi
            step <<= 1
        i = bisect_left(keys, key, lo + 1, hi)
    else:
        hi, step = p, 1
        while True:
            lo = hi - step
            if lo < 0:
                lo = -1
                break
            if keys[lo] < key:
                break
            hi = lo
            step <<= 1
        i = bisect_left(keys, key, lo + 1, hi)
    if i < n and keys[i] == key:
        return i, True
    return i - 1, False
