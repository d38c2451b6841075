"""Benchmark harness: key datasets, workload op streams, throughput reports.

Datasets are uint64 numpy arrays of keys in [0, 2**63 - 1], sorted and
deduplicated, from synthetic distributions or a binary key file
(little-endian u64 count followed by that many little-endian u64 keys).
Workloads pre-generate per-thread op and key streams from seeded
generators so runs are reproducible; all threads share one hotspot window
chosen from the run seed.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import KEY_MAX
from .index import IndexConfig, LearnedIndex


#: The skew of zipfian key ranks, as in YCSB.
ZIPF_THETA = 0.99


class DatasetFormatError(ValueError):
    """A key file does not match the binary format."""


@dataclass(frozen=True)
class DatasetSpec:
    source: str = "uniform"      # uniform | normal | lognormal | file
    size: int = 1_000_000
    seed: int = 0
    path: Optional[str] = None   # for source="file"
    # uniform draw bounds
    lo: int = 0
    hi: int = 2**63
    # normal parameters
    loc: float = float(2**45)
    scale: float = float(2**41)
    # lognormal parameters (scaled into the key domain)
    mu: float = 0.0
    sigma: float = 2.0
    multiplier: float = float(2**40)


def generate_dataset(spec: DatasetSpec) -> np.ndarray:
    """Sorted unique uint64 keys drawn as ``spec`` asks; deterministic in the seed.

    Synthetic draws may shrink slightly after deduplication; the file
    source validates the header against the actual byte length."""
    if spec.source == "file":
        raw = _read_keyfile(spec.path)
    else:
        if spec.size < 0:
            raise ValueError("dataset size must be >= 0")
        if spec.source not in _SOURCE_TAG:
            raise ValueError(f"unknown dataset source {spec.source!r}")
        rng = np.random.default_rng([spec.seed, _SOURCE_TAG[spec.source]])
        if spec.source == "uniform":
            if not 0 <= spec.lo < spec.hi <= KEY_MAX + 1:
                raise ValueError("bad uniform bounds")
            raw = rng.integers(spec.lo, spec.hi, spec.size, dtype=np.uint64)
        elif spec.source == "normal":
            raw = _clamp_to_keys(rng.normal(spec.loc, spec.scale, spec.size))
        else:  # lognormal
            x = rng.lognormal(spec.mu, spec.sigma, spec.size) * spec.multiplier
            raw = _clamp_to_keys(x)
    return np.unique(raw)


_SOURCE_TAG = {"uniform": 1, "normal": 2, "lognormal": 3}


def _clamp_to_keys(x: np.ndarray) -> np.ndarray:
    """Float draws as keys in [0, KEY_MAX].

    The upper clamp happens in uint64: float64 has no 2**63 - 1, it rounds
    to 2**63, so a float clip would let one key past the domain."""
    raw = np.clip(x, 0, float(2**63)).astype(np.uint64)
    return np.minimum(raw, np.uint64(KEY_MAX))


def _read_keyfile(path) -> np.ndarray:
    if path is None:
        raise ValueError("file datasets need a path")
    with open(path, "rb") as f:
        header = f.read(8)
        if len(header) != 8:
            raise DatasetFormatError(f"{path}: truncated header")
        (count,) = struct.unpack("<Q", header)
        data = f.read()
    if len(data) != 8 * count:
        raise DatasetFormatError(
            f"{path}: header says {count} keys ({8 * count} bytes), "
            f"found {len(data)} bytes")
    keys = np.frombuffer(data, dtype="<u8").astype(np.uint64)
    if count and int(keys.max()) > KEY_MAX:
        raise DatasetFormatError(f"{path}: key {int(keys.max())} above {KEY_MAX}")
    return keys


def write_keyfile(keys, path) -> None:
    arr = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64))
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(arr)))
        f.write(arr.astype("<u8").tobytes())


@dataclass(frozen=True)
class WorkloadSpec:
    """An op mix over a key dataset.

    ``mix`` is (search, insert, delete) and must sum to 1; range queries are
    drawn first with probability ``range_frac`` so the point-op mix keeps
    its declared proportions among non-range ops.  ``hotspot`` restricts
    query keys to one contiguous fraction of the sorted key array."""

    mix: tuple = (0.95, 0.03, 0.02)
    range_frac: float = 0.0
    range_width: int = 100
    threads: int = 1
    total_ops: Optional[int] = 100_000
    duration: Optional[float] = None
    hotspot: float = 1.0
    key_dist: str = "uniform"   # uniform | zipfian (skew ZIPF_THETA)
    seed: int = 0

    def __post_init__(self):
        if len(self.mix) != 3 or any(f < 0 for f in self.mix):
            raise ValueError("mix must be three non-negative fractions")
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise ValueError(f"mix must sum to 1, got {sum(self.mix)}")
        if not 0.0 <= self.range_frac < 1.0:
            raise ValueError("range_frac must be in [0, 1)")
        if not 0.0 < self.hotspot <= 1.0:
            raise ValueError("hotspot must be in (0, 1]")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.duration is None and not self.total_ops:
            raise ValueError("need total_ops or duration")
        if self.total_ops is not None and self.total_ops < 0:
            raise ValueError("total_ops must be >= 0")
        if self.duration is not None and not self.duration > 0:
            raise ValueError("duration must be positive")
        if self.range_width < 0:
            raise ValueError("range_width must be >= 0")
        if self.key_dist not in ("uniform", "zipfian"):
            raise ValueError(f"unknown key_dist {self.key_dist!r}")


WORKLOAD_PRESETS: dict[str, dict] = {
    "read-heavy": dict(mix=(0.95, 0.03, 0.02)),
    "update-heavy": dict(mix=(0.30, 0.50, 0.20)),
    "ycsb-a": dict(mix=(0.50, 0.50, 0.0), key_dist="zipfian"),
    "ycsb-b": dict(mix=(0.95, 0.05, 0.0), key_dist="zipfian"),
    "ycsb-c": dict(mix=(1.0, 0.0, 0.0), key_dist="zipfian"),
}


def make_workload(preset: str, **overrides) -> WorkloadSpec:
    if preset not in WORKLOAD_PRESETS:
        raise ValueError(f"unknown workload preset {preset!r}")
    params = dict(WORKLOAD_PRESETS[preset])
    params.update(overrides)
    return WorkloadSpec(**params)


CSV_HEADER = ("workload,threads,total_ops,elapsed_s,mops,"
              "searches,inserts,deletes,ranges,"
              "search_frac,insert_frac,delete_frac,range_frac,"
              "hotspot,key_dist,seed")


@dataclass
class WorkloadReport:
    label: str
    spec: WorkloadSpec
    counts: tuple  # (searches, inserts, deletes, ranges)
    elapsed: float

    @property
    def total_ops(self) -> int:
        return sum(self.counts)

    @property
    def mops(self) -> float:
        return self.total_ops / self.elapsed / 1e6 if self.elapsed > 0 else 0.0

    def realized_mix(self) -> tuple:
        """(search, insert, delete) fractions among point ops, plus the
        range fraction among all ops."""
        s, i, d, r = self.counts
        points = s + i + d
        total = points + r
        if points == 0 or total == 0:
            return (0.0, 0.0, 0.0, 0.0)
        return (s / points, i / points, d / points, r / total)

    def to_csv_row(self) -> str:
        s, i, d, r = self.counts
        sf, inf, df, rf = self.realized_mix()
        return (f"{self.label},{self.spec.threads},{self.total_ops},"
                f"{self.elapsed:.6f},{self.mops:.6f},"
                f"{s},{i},{d},{r},"
                f"{sf:.6f},{inf:.6f},{df:.6f},{rf:.6f},"
                f"{self.spec.hotspot},{self.spec.key_dist},{self.spec.seed}")


def _zipf_cdf(n: int, theta: float) -> np.ndarray:
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
    c = np.cumsum(w)
    return c / c[-1]


def _stream(rng, spec: WorkloadSpec, count: int, wstart: int, wsize: int,
            zcdf) -> tuple[np.ndarray, np.ndarray]:
    """(op codes, key positions) for one chunk: 0=search 1=insert 2=delete 3=range."""
    cum = np.cumsum(spec.mix)
    codes = np.searchsorted(cum, rng.random(count), side="right").astype(np.int8)
    codes[codes > 2] = 2  # guard the fp edge at exactly 1.0
    if spec.range_frac > 0.0:
        codes[rng.random(count) < spec.range_frac] = 3
    if spec.key_dist == "zipfian":
        ranks = np.searchsorted(zcdf, rng.random(count), side="left")
        pos = wstart + ranks
    else:
        pos = rng.integers(wstart, wstart + wsize, count)
    return codes, pos


def prepare_index(keys: np.ndarray, prefill: int,
                  config: IndexConfig | None = None,
                  seed: int = 0) -> tuple[LearnedIndex, np.ndarray]:
    """Build an index over a random prefill subset; payloads = keys."""
    n = len(keys)
    if not 0 <= prefill <= n:
        raise ValueError(f"prefill {prefill} out of range for {n} keys")
    rng = np.random.default_rng([seed, 4])
    chosen = np.sort(rng.choice(keys, size=prefill, replace=False))
    index = LearnedIndex.build(((int(k), int(k)) for k in chosen), config)
    return index, chosen


def run_workload(index: LearnedIndex, keys: np.ndarray,
                 spec: WorkloadSpec, label: str = "custom") -> WorkloadReport:
    """Drive the index with the specified mix and report counts and rate.

    Ops-mode divides total_ops across threads; duration-mode runs chunked
    streams until the deadline.  Key positions come from the shared hotspot
    window under the per-thread seeded generator."""
    n = len(keys)
    if n == 0:
        raise ValueError("empty dataset")
    wsize = max(1, int(round(spec.hotspot * n)))
    wsize = min(wsize, n)
    rng0 = np.random.default_rng([spec.seed, 3])
    wstart = int(rng0.integers(0, n - wsize + 1))
    zcdf = _zipf_cdf(wsize, ZIPF_THETA) if spec.key_dist == "zipfian" else None

    nthreads = spec.threads
    counts = [(0, 0, 0, 0)] * nthreads
    errors: list[Exception] = []
    barrier = threading.Barrier(nthreads + 1)

    def worker(t: int, budget: Optional[int]) -> None:
        rng = np.random.default_rng([spec.seed, 100 + t])
        local = [0, 0, 0, 0]
        search, insert, delete = index.search, index.insert, index.delete
        rquery = index.range
        width = spec.range_width
        barrier.wait()
        deadline = (time.perf_counter() + spec.duration
                    if spec.duration is not None else None)
        remaining = budget
        while True:
            if remaining is not None:
                if remaining <= 0:
                    break
                chunk = min(remaining, 8192)
                remaining -= chunk
            else:
                if time.perf_counter() >= deadline:
                    break
                chunk = 2048
            codes, pos = _stream(rng, spec, chunk, wstart, wsize, zcdf)
            ks = keys[pos].tolist()
            cs = codes.tolist()
            for c, k in zip(cs, ks):
                if c == 0:
                    search(k)
                elif c == 1:
                    insert(k, k)
                elif c == 2:
                    delete(k)
                else:
                    rquery(k, width)
                local[c] += 1
        counts[t] = tuple(local)

    def run(t: int, budget: Optional[int]) -> None:
        try:
            worker(t, budget)
        except Exception as exc:  # re-raised after the joins
            errors.append(exc)
            barrier.abort()  # one that fails before the start strands no one

    if spec.duration is not None:
        budgets = [None] * nthreads
    else:
        per = spec.total_ops // nthreads
        budgets = [per] * nthreads
        budgets[0] += spec.total_ops - per * nthreads
    threads = [threading.Thread(target=run, args=(t, budgets[t]))
               for t in range(nthreads)]
    for th in threads:
        th.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a worker failed before the start; raised below
    start = time.perf_counter()
    for th in threads:
        th.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]

    total = tuple(sum(c[i] for c in counts) for i in range(4))
    return WorkloadReport(label, spec, total, elapsed)


def write_reports(reports, stream) -> None:
    stream.write(CSV_HEADER + "\n")
    for r in reports:
        stream.write(r.to_csv_row() + "\n")
