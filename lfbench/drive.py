"""Closed-loop driver: timed passes over a fixed op stream, checked results.

A pass bulk-builds a fresh index from the prepared pairs (timed as set-up)
and runs the whole op stream from one client thread, timing every call.
Passes repeat until the requested measuring time is spent, so every pass
runs the same ops against the same structures and their samples pool.
Every pass is checked against the oracle, untimed warm-up passes too.

Host-speed correction: on a shared host the CPU's speed drifts by up to 2x
within seconds, far more than the changes this benchmark must detect.  So
every timed stretch (a build, or about ``CHUNK_NS`` of ops) is bracketed by
a fixed pure-Python calibration loop that runs no lfindex code, and its
times are scaled by ``CALIBRATION_REF_NS`` over the loop's measured time:
they read as on a host where the loop takes ``CALIBRATION_REF_NS``.  Raw
times are kept beside the corrected ones for the report.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from lfindex import LearnedIndex, audit_structure

from workloads import Prepared

#: Recorded in place of a result when the call raised.
RAISED = object()

# Cheap builds are repeated until set-up samples add up to this share of the
# measuring time, so the set-up median does not rest on a few millisecond
# timings.
MIN_SETUP_SAMPLES = 3
MIN_SETUP_SHARE = 0.1

CHUNK_NS = 10_000_000         # op time between two calibrations
CALIBRATION_ITERS = 500
CALIBRATION_REF_NS = 250_000  # the loop's time on the reference host

# the loop's data is preallocated so it allocates no container and can
# never trigger a garbage collection of the index's objects
_CAL_LIST = list(range(64))
_CAL_DICT = dict.fromkeys(range(16), 0)


def _calibration_loop(n: int) -> int:
    lst, d = _CAL_LIST, _CAL_DICT
    acc = 0
    for i in range(n):
        acc += bisect_left(lst, i & 63) + len(d)
        d[i & 15] = i
    return acc


def host_factor() -> float:
    """Reference over measured calibration time; best of three, so that an
    interrupt during one loop does not skew the factor."""
    clock = time.perf_counter_ns
    best = None
    for _ in range(3):
        t0 = clock()
        _calibration_loop(CALIBRATION_ITERS)
        dt = clock() - t0
        if best is None or dt < best:
            best = dt
    return CALIBRATION_REF_NS / best


@dataclass
class Measured:
    setup_s: list = field(default_factory=list)   # corrected, per build
    pass_ns: list = field(default_factory=list)   # corrected ns per op, per pass
    run_s: float = 0.0         # raw op time
    corrected_s: float = 0.0   # op time after host-speed correction
    attempted: int = 0
    mismatched: int = 0
    raised: int = 0
    index: object = None       # the index left by the last pass

    @property
    def failed(self) -> int:
        return self.mismatched + self.raised

    @property
    def timed_ops(self) -> int:
        return sum(len(p) for p in self.pass_ns)

    def paired_ns(self) -> np.ndarray:
        """Latency samples (ns), one row per pair of consecutive timed passes.

        Each sample is the lesser of one op's times in the two passes.  Both
        run the same op on the same structure, so this keeps every cost the
        program pays each time (garbage collections included, as each pass
        starts from a collected heap) and drops the stalls the host inflicts
        at random."""
        p = self.pass_ns
        return np.array([np.minimum(a, b) for a, b in zip(p, p[1:])] or p[:1])


def build(prep: Prepared, index_cls=LearnedIndex):
    """Build the index; returns it with the corrected build time in seconds."""
    before = host_factor()
    t0 = time.perf_counter()
    index = index_cls.build(prep.pairs)
    dt = time.perf_counter() - t0
    return index, dt * (before + host_factor()) / 2


def run_pass(index, prep: Prepared, m: Measured, timed: bool = True) -> None:
    """Run the op stream once against ``index`` and check every result.

    An untimed pass is still checked, but adds nothing to the timings."""
    fns = (index.search, index.insert, index.delete, index.range)
    clock = time.perf_counter_ns
    lat = []
    keep_lat = lat.append
    results = []
    keep = results.append
    bounds, factors, walls = [], [], []
    factor = host_factor()
    start = clock()
    for c, args in prep.ops:
        f = fns[c]
        t0 = clock()
        try:
            r = f(*args)
        except Exception:
            r = RAISED
        t1 = clock()
        keep_lat(t1 - t0)
        keep(r)
        if t1 - start >= CHUNK_NS:
            after = host_factor()
            bounds.append(len(lat))
            factors.append((factor + after) / 2)
            walls.append(t1 - start)
            factor = after
            start = clock()
    end = clock()
    m.attempted += len(results)
    for r, e in zip(results, prep.expected):
        if r is RAISED:
            m.raised += 1
        elif r != e:
            m.mismatched += 1
    if not timed:
        return
    if len(lat) > (bounds[-1] if bounds else 0):
        bounds.append(len(lat))
        factors.append((factor + host_factor()) / 2)
        walls.append(end - start)
    sizes = np.diff(bounds, prepend=0)
    m.pass_ns.append(np.asarray(lat, dtype=np.float64) * np.repeat(factors, sizes))
    m.run_s += sum(walls) / 1e9
    m.corrected_s += float(np.dot(walls, factors)) / 1e9


def _fresh_index(prep: Prepared, m: Measured, index_cls):
    m.index = None
    gc.collect()
    index, dt = build(prep, index_cls)
    m.setup_s.append(dt)
    gc.collect()  # every pass starts from the same collected heap
    return index


def measure(prep: Prepared, seconds: float, index_cls=LearnedIndex,
            around_pass=None, min_passes: int = 1, warm_up: bool = False) -> Measured:
    """Timed passes until ``seconds`` of raw op time is spent.

    ``warm_up`` first runs one checked but untimed pass, so that the
    allocator and the caches have settled before anything is timed.
    ``around_pass(index)`` may return a context manager that wraps each
    timed pass, which is how the traced run instruments the same loop."""
    m = Measured()
    if warm_up:
        run_pass(_fresh_index(prep, m, index_cls), prep, m, timed=False)
    while len(m.pass_ns) < min_passes or m.run_s < seconds:
        index = _fresh_index(prep, m, index_cls)
        if around_pass is None:
            run_pass(index, prep, m)
        else:
            with around_pass(index):
                run_pass(index, prep, m)
        m.index = index
    while (len(m.setup_s) < MIN_SETUP_SAMPLES
           or sum(m.setup_s) < MIN_SETUP_SHARE * seconds):
        _, dt = build(prep, index_cls)
        m.setup_s.append(dt)
    return m


def check_final(index, prep: Prepared) -> list[str]:
    """Structural audit plus final-state comparison; returns the problems."""
    report = audit_structure(index)
    problems = [f"audit {f.kind}: {f.detail}" for f in report.findings[:20]]
    if report.ok and report.live_map() != prep.final_map:
        problems.append("final key -> payload map differs from the oracle's")
    return problems


def percentile(sorted_ns, q: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    i = max(0, -(-int(q * 1000) * len(sorted_ns) // 1000) - 1)
    return float(sorted_ns[min(i, len(sorted_ns) - 1)])


_NOT_HELD = (type, types.ModuleType, types.FunctionType,
             types.BuiltinFunctionType, types.MethodType)


def held_bytes(root: object) -> int:
    """Bytes of every object reachable from ``root``, each counted once.

    Classes, modules and functions are code, not data, and are skipped.
    An object whose only reference is the one the walk followed cannot be
    reached twice, so only multiply-referenced objects enter the seen-set;
    that keeps the walk near a microsecond per object.
    """
    holder = [object()]
    stack = [holder[0]]
    probe = stack.pop()
    single = sys.getrefcount(probe)  # one holder, as seen from inside the walk
    del probe
    seen: set = set()
    stack = [root]
    skip: dict = {}
    total = 0
    refcount, sizeof, referents = sys.getrefcount, sys.getsizeof, gc.get_referents
    while stack:
        obj = stack.pop()
        if refcount(obj) > single:
            i = id(obj)
            if i in seen:
                continue
            seen.add(i)
        t = type(obj)
        s = skip.get(t)
        if s is None:
            s = skip[t] = issubclass(t, _NOT_HELD)
        if s:
            continue
        total += sizeof(obj)
        stack.extend(referents(obj))
    return total
