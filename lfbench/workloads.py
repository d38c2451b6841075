"""Seeded inputs for the benchmark's three workloads.

A workload turns a seed into everything one closed-loop client needs: the
sorted pairs bulk-loaded into the index and a fixed op stream.  The index
only ever sees these generated keys and ops.  ``prepare`` then replays the
stream through ``SequentialOracle`` to get every op's expected result before
anything is timed.

Every workload carries all four op types so that each per-op latency has
samples on each workload; the minor ops are a small share where the
workload's point is elsewhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lfindex import DatasetSpec, SequentialOracle, generate_dataset

SEARCH, INSERT, DELETE, RANGE = 0, 1, 2, 3
OP_NAMES = ("search", "insert", "delete", "range")
RANGE_SPAN = 64      # dataset keys covered by one range query
RECENT_WINDOW = 4096  # append_recent reads among the newest keys


@dataclass
class Inputs:
    """Generated inputs, as positions into ``universe``.

    ``universe`` is every key the workload can touch, sorted; ``loaded`` the
    positions bulk-loaded; ``codes``/``pos``/``arg`` the op stream, where
    ``arg`` is the payload of an insert and the width of a range.
    """

    universe: np.ndarray
    loaded: np.ndarray
    codes: np.ndarray
    pos: np.ndarray
    arg: np.ndarray


@dataclass
class Workload:
    name: str
    why: str
    make: Callable[[int, float], Inputs]


def _mixed_codes(rng, n: int, shares: tuple) -> np.ndarray:
    """Op codes drawn independently with (search, insert, delete, range) shares."""
    return np.searchsorted(np.cumsum(shares), rng.random(n) * sum(shares),
                           side="right").astype(np.int8)


def _range_widths(universe: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Key-space widths that span RANGE_SPAN universe keys from each position."""
    end = np.minimum(pos + RANGE_SPAN, len(universe) - 1)
    return universe[end] - universe[pos]


def _half_loaded(rng, n: int) -> np.ndarray:
    return np.sort(rng.choice(n, size=n // 2, replace=False))


def _args(codes, pos, universe) -> np.ndarray:
    # fresh payloads (op number + 1) make every insert of a live key an
    # overwrite that adds a version
    arg = np.arange(1, len(codes) + 1, dtype=np.uint64)
    ranges = codes == RANGE
    arg[ranges] = _range_widths(universe, pos[ranges])
    return arg


def make_point_skewed(seed: int, scale: float) -> Inputs:
    n = int(1_000_000 * scale)
    ops = int(500_000 * scale)
    rng = np.random.default_rng([seed, 11])
    universe = generate_dataset(DatasetSpec("uniform", n, seed))
    n = len(universe)
    cdf = np.cumsum(1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), 0.99))
    ranks = np.searchsorted(cdf / cdf[-1], rng.random(ops), side="left")
    pos = rng.permutation(n)[np.minimum(ranks, n - 1)]  # scatter the hot ranks
    codes = _mixed_codes(rng, ops, (0.92, 0.05, 0.01, 0.02))
    return Inputs(universe, _half_loaded(rng, n), codes, pos,
                  _args(codes, pos, universe))


def make_append_recent(seed: int, scale: float) -> Inputs:
    nload = 1000
    ops = int(60_000 * scale)
    rng = np.random.default_rng([seed, 12])
    base = generate_dataset(DatasetSpec("uniform", nload, seed, hi=2**40))
    nload = len(base)
    ninsert = (ops + 1) // 2
    gaps = rng.integers(1, 2**16, ninsert, dtype=np.uint64)
    universe = np.concatenate([base, base[-1] + np.cumsum(gaps)])
    i = np.arange(ops)
    inserted = nload + (i + 1) // 2   # keys present before op i
    recent = np.minimum(inserted, RECENT_WINDOW)
    read_pos = inserted - 1 - (rng.random(ops) * recent).astype(np.int64)
    # even ops append the next ascending key; odd ops read or delete a recent one
    pos = np.where(i % 2 == 0, nload + i // 2, read_pos)
    codes = np.where(i % 2 == 0, INSERT,
                     _mixed_codes(rng, ops, (0.70, 0.0, 0.10, 0.20))).astype(np.int8)
    return Inputs(universe, np.arange(nload), codes, pos,
                  _args(codes, pos, universe))


def make_churn_scan(seed: int, scale: float) -> Inputs:
    n = int(200_000 * scale)
    ops = int(150_000 * scale)
    rng = np.random.default_rng([seed, 13])
    universe = generate_dataset(DatasetSpec("lognormal", n, seed))
    n = len(universe)
    pos = rng.integers(0, n, ops)
    codes = _mixed_codes(rng, ops, (0.30, 0.35, 0.20, 0.15))
    return Inputs(universe, _half_loaded(rng, n), codes, pos,
                  _args(codes, pos, universe))


WORKLOADS = {w.name: w for w in (
    Workload(
        "point_skewed",
        "1M uniform keys, half loaded, zipfian 92/5/1/2 search/insert/"
        "delete/range: root locate and seek dominate, bins stay tiny, the "
        "working set is far larger than CPU caches",
        make_point_skewed),
    Workload(
        "append_recent",
        "1k keys loaded, then ascending inserts past the max alternating "
        "with reads of the newest 4k keys: bin lifecycle, retrains and the "
        "nested-node chain do the work, the working set fits in cache",
        make_append_recent),
    Workload(
        "churn_scan",
        "200k lognormal keys, half loaded, 30/35/20/15 search/insert/delete/"
        "range with fresh payloads: tombstones and version chains pile up "
        "under scans that examine dead keys",
        make_churn_scan),
)}


@dataclass
class Prepared:
    """Inputs in the form the index takes, with the oracle's answers."""

    pairs: list          # sorted (key, payload) pairs to bulk-load
    ops: list            # (op code, call args) per op
    codes: np.ndarray    # op code per op
    expected: list       # oracle result per op
    examined: int        # keys ever inserted inside the range windows, summed
    live_keys: int       # live keys once the whole stream has run
    final_map: dict      # the oracle's key -> payload map after the stream
    op_counts: tuple     # ops per code


def prepare(inp: Inputs) -> Prepared:
    keys = inp.universe.tolist()
    pairs = [(keys[p], keys[p]) for p in inp.loaded.tolist()]
    oracle = SequentialOracle.from_pairs(pairs)
    ever = np.zeros(len(keys), dtype=bool)
    ever[inp.loaded] = True
    calls = (oracle.search, oracle.insert, oracle.delete, oracle.range)
    ops, expected = [], []
    examined = 0
    for c, p, a in zip(inp.codes.tolist(), inp.pos.tolist(), inp.arg.tolist()):
        k = keys[p]
        args = (k,) if c == SEARCH or c == DELETE else (k, a)
        if c == INSERT:
            ever[p] = True
        elif c == RANGE:
            examined += int(np.count_nonzero(ever[p:bisect_right(keys, k + a)]))
        ops.append((c, args))
        expected.append(calls[c](*args))
    final = oracle.live_map()
    counts = tuple(int(np.count_nonzero(inp.codes == c)) for c in range(4))
    return Prepared(pairs, ops, inp.codes, expected, examined, len(final), final,
                    counts)
