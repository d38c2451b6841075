"""Acceptance suite: nine self-contained pass/fail criteria.

Each criterion is a function returning a CriterionResult; the CLI `verify`
subcommand prints one line per criterion and the test suite asserts each
one.  `quick=True` shrinks the scales for smoke runs; the recorded
tolerances never change.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import struct
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .bins import (OneLevelBin, collect_frozen, freeze_bin, insert_bin,
                   search_bin, UNDER_MAKE_MODEL)
from .core import KEY_MAX, set_cas_hook
from .harness import (
    DatasetSpec,
    generate_dataset,
    make_workload,
    prepare_index,
    run_workload,
)
from .index import FOUND, IndexConfig, LearnedIndex, ModelNode
from .models import (fit_linear, measure_segments, root_table, search_nonroot,
                     search_root, segment_root)
from .rangescan import scan
from .verify import (
    HistoryRecorder,
    SequentialOracle,
    audit_structure,
    check_linearizable,
    format_event,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"{status} {self.number} {self.name}: {self.detail} ({self.elapsed:.1f}s)"


def _result(number, name, passed, detail, t0, skipped=False) -> CriterionResult:
    return CriterionResult(number, name, passed, detail,
                           time.perf_counter() - t0, skipped)


def _stall_hook(seed: int, rate: float):
    """A CAS hook that sleeps briefly in a ``rate`` share of the atomic
    sections: the sleep widens the windows where genuinely overlapping
    operations can interleave."""
    rnd = random.Random(seed)

    def stall(_cell, _ok):
        if rnd.random() < rate:
            time.sleep(2e-5)
    return stall


@contextlib.contextmanager
def _racing(hook=None):
    """Run the block with a 10 µs switch interval, so threads interleave
    finely, and with ``hook`` as the CAS hook; restore both on exit."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    set_cas_hook(hook)
    try:
        yield
    finally:
        set_cas_hook(None)
        sys.setswitchinterval(old)


def criterion_1_sequential_conformance(quick: bool = False) -> CriterionResult:
    """10^6 mixed random ops on one thread match the oracle op by op."""
    t0 = time.perf_counter()
    n_ops = 100_000 if quick else 1_000_000
    domain = 100_000
    rng = np.random.default_rng(12345)

    prefill = [(k, int(k) % 8) for k in range(0, domain, 2)]
    index = LearnedIndex.build(prefill)
    oracle = SequentialOracle.from_pairs(prefill)

    cum = np.cumsum([0.50, 0.28, 0.15, 0.07])
    codes = np.searchsorted(cum, rng.random(n_ops), side="right")
    codes[codes > 3] = 3
    keys = rng.integers(0, domain, n_ops).tolist()
    vals = rng.integers(0, 8, n_ops).tolist()
    widths = rng.integers(0, 61, n_ops).tolist()
    codes = codes.tolist()

    mismatches = 0
    first = ""
    for j in range(n_ops):
        c, k = codes[j], keys[j]
        if c == 0:
            got, want = index.search(k), oracle.search(k)
        elif c == 1:
            v = vals[j]
            got, want = index.insert(k, v), oracle.insert(k, v)
        elif c == 2:
            got, want = index.delete(k), oracle.delete(k)
        else:
            w = widths[j]
            got, want = index.range(k, w), oracle.range(k, w)
        if got != want:
            mismatches += 1
            if not first:
                first = f"op {j} ({('search','insert','delete','range')[c]} {k}): index {got!r} vs oracle {want!r}"
    ok = mismatches == 0
    detail = (f"{n_ops} ops matched the oracle" if ok
              else f"{mismatches} mismatches; first: {first}")
    return _result(1, "sequential-conformance", ok, detail, t0)


def criterion_2_model_soundness(quick: bool = False) -> CriterionResult:
    """Rank residuals within eps on uniform and lognormal builds; learned
    searches agree with plain binary search on random probes."""
    t0 = time.perf_counter()
    size = 20_000 if quick else 100_000
    n_probes = 20_000 if quick else 100_000
    problems = []

    for source in ("uniform", "lognormal"):
        keys = generate_dataset(DatasetSpec(source=source, size=size, seed=7)).tolist()
        segs = segment_root(keys, 32.0)
        table = root_table(segs, len(keys))
        # every key's true rank within eps of the raw line, and its index
        # within the measured window of the clamped prediction search_root
        # makes from the table; every window at most int(eps) + 1
        for seg, (first, last, a, c, w) in zip(segs, table[1]):
            eps = seg.model.eps
            if w > int(eps) + 1:
                problems.append(f"{source}: window {w} wider than int(eps {eps}) + 1")
                break
            for i in range(first, last + 1):
                x = seg.model.a * keys[i] + seg.model.b
                if abs(x - (i - first)) > eps:
                    problems.append(f"{source}: raw residual {abs(x - (i - first))} > eps {eps}")
                    break
                p = min(max(first + math.floor(a * keys[i] + c), first), last)
                if abs(p - i) > w:
                    problems.append(f"{source}: window {w} misses index {i}, predicted at {p}")
                    break
            if problems:
                break

        flat = root_table(measure_segments(keys, [(0, fit_linear(keys))]), len(keys))
        rng = np.random.default_rng(99)
        present = rng.choice(np.asarray(keys, dtype=np.uint64), n_probes // 2)
        absent = rng.integers(0, 2**63, n_probes - n_probes // 2, dtype=np.uint64)
        probes = np.concatenate([present, absent]).tolist()
        for p in probes:
            i = bisect_left(keys, p)
            want = (i, True) if i < len(keys) and keys[i] == p else (i - 1, False)
            got_root = search_root(keys, table, p)
            got_flat = search_nonroot(keys, flat, p)
            if got_root != want or got_flat != want:
                problems.append(f"{source}: probe {p}: root {got_root}, flat {got_flat}, bisect {want}")
                break
        if problems:
            break

    ok = not problems
    detail = (f"2x{size} keys, residuals in-bound, {n_probes} probes agree with bisect"
              if ok else problems[0])
    return _result(2, "model-soundness", ok, detail, t0)


def _segment_bits(segments) -> list:
    """Each segment's start, the bytes of its model's floats and its window."""
    return [(s.start_key, s.start_index, struct.pack("<ddd", *s.model), s.window)
            for s in segments]


def criterion_3_fit_determinism(quick: bool = False) -> CriterionResult:
    """N threads race ``help_make_model`` on one full two-level bin; exactly
    one ModelNode is installed, it reuses the keys and version chains of
    the top it replaces, and every one of its segments is bit-identical to
    a sequential ``segment_root`` under ``eps_target``.  Each race runs
    twice: under a root of more keys than the bin, whose retrain's top is
    the bin, and under a two-key root, whose retrain's top is the root, so
    its node goes into the header's slot."""
    t0 = time.perf_counter()
    trials = 10 if quick else 30
    cfg = IndexConfig()
    rng = random.Random(42)
    # a helper makes two hooked steps, its freeze and its install; every
    # helper stalls in its freeze of the raced bin, inside the guarded step,
    # whose lock every other guarded step waits on, so the helpers leave
    # their freezes one by one and collect, fit and install staggered; the
    # short switch interval interleaves those steps, and any other hooked
    # step stalls now and then, rarer than in criterion 5
    stall = _stall_hook(43, 0.05)
    built: dict = {}  # (top, helpers) -> helpers that built a node, per race

    def race(helpers: int, root_top: bool):
        # root keys above the bin's: the top is the root unless they
        # outnumber the bin (``COMPACT_RATIO``)
        room = 1 if root_top else cfg.tlb_threshold + 1
        top_keys = range(KEY_MAX - room + 1, KEY_MAX + 1)
        index = LearnedIndex.build([(0, 0)] + [(k, 0) for k in top_keys], cfg)
        keys = rng.sample(range(1, top_keys[0]), cfg.tlb_threshold)
        # the first olb_threshold keys set the separators: take them evenly
        # from the sorted sample, so every list ends with the same share and
        # none reaches list_threshold before the bin's total is full
        step = cfg.tlb_threshold // cfg.olb_threshold
        first = sorted(keys)[step - 1::step]
        chosen = set(first)
        for k in first + [k for k in keys if k not in chosen]:
            index.insert(k, k)
        node, slot, bin_ = index.seek(1)
        root = index.root
        parent, pslot = (index.header, 0) if root_top else (node, slot)
        installs = []
        index.transition_log = lambda _parent, _slot, _old, new: installs.append(new)
        barrier = threading.Barrier(helpers)
        builders = []

        def help_out():
            barrier.wait()
            index.help_make_model(node, slot, bin_)

        def hook(cell, ok):
            if cell is bin_:
                time.sleep(2e-5)  # between this helper's freeze and install
                return
            if cell is parent.children[pslot] and cell is not root:
                builders.append(ok)  # the install of a helper that built a node
            stall(cell, ok)

        threads = [threading.Thread(target=help_out) for _ in range(helpers)]
        with _racing(hook):
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        if any(th.is_alive() for th in threads):
            return "a helper was still running after 60 s"
        built.setdefault((root_top, helpers), []).append(len(builders))
        fresh = parent.children[pslot]
        keys, versions = collect_frozen(bin_, index.clock)
        if installs != [fresh] or not isinstance(fresh, ModelNode):
            return f"{len(installs)} installs, slot holds {type(fresh).__name__}"
        if len(keys) != cfg.tlb_threshold:
            return f"the frozen bin holds {len(keys)} keys"
        if root_top:
            if root.frozen != (index.header, 0, root.keys) or index.root is not fresh:
                return "the root was not replaced by the job in the header's slot"
            keys = root.keys[:slot] + keys + root.keys[slot:]
            versions = root.versions[:slot] + versions + root.versions[slot:]
        if fresh.keys != keys:
            return "installed keys differ from the frozen top's"
        if any(a is not b for a, b in zip(fresh.versions, versions)):
            return "version chains were copied, not reused"
        want = segment_root(keys, cfg.eps_target)
        if _segment_bits(fresh.segments) != _segment_bits(want):
            return f"segments {fresh.segments} != sequential segment_root {want}"
        report = audit_structure(index)
        return None if report.ok else f"audit findings: {report.findings[:2]}"

    problem = None
    for root_top, helpers, trial in itertools.product((False, True), (1, 8, 32),
                                                      range(trials)):
        problem = race(helpers, root_top)
        if problem:
            top = "root" if root_top else "bin"
            problem = f"{helpers} helpers, top {top}, trial {trial}: {problem}"
            break
    detail = problem
    if problem is None:
        spans = "; ".join(
            f"top {top}: " + ", ".join(
                f"{min(built[root_top, h])}-{max(built[root_top, h])} of {h}" for h in (1, 8, 32))
            for root_top, top in ((False, "bin"), (True, "root")))
        detail = (f"{trials} races each of 1/8/32 helpers on a {cfg.tlb_threshold}-key bin, "
                  f"topped by the bin and by the root: one install, chains reused, segments "
                  f"bit-identical to a sequential segment_root; helpers that built a node, "
                  f"min-max: {spans}")
    return _result(3, "fit-determinism", problem is None, detail, t0)


def criterion_4_no_lost_pairs(quick: bool = False) -> CriterionResult:
    """8 threads insert disjoint keys through bin transformations; the
    audited key map equals the union of inserts exactly."""
    t0 = time.perf_counter()
    total = 100_000 if quick else 800_000
    nthreads = 8
    rng = np.random.default_rng(2024)
    pool = np.unique(rng.integers(0, 2**63, int(total * 1.2) + 2048, dtype=np.uint64))
    assert len(pool) >= total + 1000
    pool = pool[:total + 1000]
    perm = rng.permutation(len(pool))
    prefill_keys = np.sort(pool[perm[:1000]])
    insert_keys = pool[perm[1000:]]

    index = LearnedIndex.build((int(k), int(k)) for k in prefill_keys)
    shares = [insert_keys[t::nthreads].tolist() for t in range(nthreads)]
    failures = []

    def run(t):
        ins = index.insert
        for k in shares[t]:
            if not ins(k, k):
                failures.append(k)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(nthreads)]
    with _racing():
        for th in threads:
            th.start()
        for th in threads:
            th.join()

    if failures:
        return _result(4, "no-lost-pairs", False,
                       f"{len(failures)} inserts of fresh keys returned False", t0)
    report = audit_structure(index)
    if not report.ok:
        return _result(4, "no-lost-pairs", False,
                       f"audit findings: {report.findings[:3]}", t0)
    expected = {int(k): int(k) for k in pool}
    ok = report.payloads == expected
    detail = (f"{total} concurrent inserts all present; audit clean "
              f"({len(report.payloads)} keys)" if ok
              else f"key map mismatch: {len(report.payloads)} keys vs {len(expected)} expected")
    return _result(4, "no-lost-pairs", ok, detail, t0)


def _random_ops(rnd: random.Random, count: int) -> list:
    ops = []
    for _ in range(count):
        r = rnd.random()
        k = rnd.randrange(8)
        if r < 0.35:
            ops.append(("search", (k,)))
        elif r < 0.65:
            ops.append(("insert", (k, rnd.randrange(4))))
        elif r < 0.85:
            ops.append(("delete", (k,)))
        else:
            ops.append(("range", (k, rnd.randrange(8))))
    return ops


def _random_history(recorder: HistoryRecorder, rnd: random.Random) -> list:
    """Up to 12 ops over keys 0..7 on at most 3 thread names.

    Two shapes: three concurrent threads of four ops, or a sequential
    recorded prefill of one to four inserts followed by two concurrent
    threads of four ops.  Either way the history is self-contained, so an
    empty initial map is the right baseline for the checker."""
    if rnd.random() < 1 / 3:
        for _ in range(rnd.randrange(1, 5)):
            recorder.run("init", "insert", rnd.randrange(8), rnd.randrange(4))
        names = ("T0", "T1")
    else:
        names = ("T0", "T1", "T2")
    barrier = threading.Barrier(len(names))

    def worker(name, ops):
        barrier.wait()
        for op, args in ops:
            recorder.run(name, op, *args)

    plans = [(tname, _random_ops(rnd, 4)) for tname in names]
    threads = [threading.Thread(target=worker, args=p) for p in plans]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return recorder.history()


def _plant_violation(events: list) -> list:
    """Corrupt one recorded read so no witness can exist: the forged value
    424242 is never written by any op, so no reachable map contains it."""
    from .verify import HistoryEvent
    out = list(events)
    for i, e in enumerate(out):
        if e.op == "search":
            out[i] = HistoryEvent(e.thread, e.op, e.args, 424242, e.inv, e.res)
            return out
    for i, e in enumerate(out):
        if e.op == "range":
            fake = list(e.result) + [(9, 424242)]
            out[i] = HistoryEvent(e.thread, e.op, e.args, fake, e.inv, e.res)
            return out
    raise ValueError("history has no read to corrupt")


def criterion_5_linearizability(quick: bool = False) -> CriterionResult:
    """Randomized 3-thread histories recorded from the real index all pass
    the exhaustive checker; planted violations are all rejected."""
    t0 = time.perf_counter()
    n_hist = 1_000 if quick else 10_000
    rnd = random.Random(777)
    stall = _stall_hook(31, 0.4)

    planted_pool = []
    overlapping = 0
    with _racing(stall):
        for it in range(n_hist):
            index = LearnedIndex.build([])
            recorder = HistoryRecorder(index)
            events = _random_history(recorder, rnd)
            res = check_linearizable(events)
            if not res.ok:
                lines = "; ".join(format_event(e) for e in res.failing_prefix[-4:])
                return _result(5, "linearizability", False,
                               f"history {it} not linearizable; prefix tail: {lines}", t0)
            if any(a.thread != b.thread and a.inv < b.inv < a.res
                   for a in events for b in events):
                overlapping += 1
            if len(planted_pool) < 100 and any(e.op in ("search", "range") for e in events):
                planted_pool.append(events)

    accepted_plants = 0
    for events in planted_pool:
        if check_linearizable(_plant_violation(events)).ok:
            accepted_plants += 1
    ok = accepted_plants == 0
    detail = (f"{n_hist} recorded histories linearizable ({overlapping} with "
              f"cross-thread overlap); {len(planted_pool)} planted violations "
              f"all rejected" if ok
              else f"{accepted_plants} planted violations were wrongly accepted")
    return _result(5, "linearizability", ok, detail, t0)


def criterion_6_snapshot_ranges(quick: bool = False) -> CriterionResult:
    """Writers update sequence-numbered payloads while scanners snapshot;
    every result equals the chain state at the scan's timestamp, and a
    quiescent range equals the per-writer oracle."""
    t0 = time.perf_counter()
    run_s = 2.0 if quick else 10.0
    nwriters = nscanners = 4
    rng = np.random.default_rng(31337)
    keyset = np.unique(rng.integers(0, 2**62, 4400, dtype=np.uint64))[:4000]
    keys = [int(k) for k in keyset]
    n = len(keys)

    prefill_val = {k: (15 << 44) | i for i, k in enumerate(keys)}
    index = LearnedIndex.build((k, prefill_val[k]) for k in keys)
    clock = index.clock

    owned = [keys[w::nwriters] for w in range(nwriters)]
    final = [dict() for _ in range(nwriters)]
    scans: list[tuple[int, int, int, list]] = []
    stop = threading.Event()

    def writer(w):
        rnd = random.Random(1000 + w)
        mine = owned[w]
        seq = 0
        while not stop.is_set():
            k = mine[rnd.randrange(len(mine))]
            if rnd.random() < 0.15:
                if index.delete(k):
                    final[w][k] = None
            else:
                seq += 1
                v = (w << 44) | seq
                index.insert(k, v)
                final[w][k] = v

    def scanner(s):
        rnd = random.Random(2000 + s)
        mine: list = []
        while not stop.is_set():
            a = rnd.randrange(n - 250)
            lo, hi = keys[a], keys[a + 249]
            ts = clock.read_and_bump()
            out: list = []
            scan(index.root, lo, hi, ts, out, clock)
            mine.append((ts, lo, hi, out))
        scans.extend([mine[i] for i in range(0, len(mine), 2)])  # keep half

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(nwriters)]
    threads += [threading.Thread(target=scanner, args=(s,)) for s in range(nscanners)]
    with _racing():
        for th in threads:
            th.start()
        time.sleep(run_s)
        stop.set()
        for th in threads:
            th.join()

    # per-key version log, ascending by (ts, age): position breaks ts ties,
    # oldest first, so the rightmost entry with ts <= t is the visible one
    chain_ts: dict[int, list] = {}
    chain_val: dict[int, list] = {}
    for k in keys:
        node, i, child = index.seek(k)
        if child is FOUND:
            ver = node.versions[i].value
        else:
            kn = search_bin(child, k)
            ver = kn.version.value if kn is not None else None
        rev = []
        while ver is not None:
            rev.append((ver.ts, ver.val))
            ver = ver.vnext
        rev.reverse()
        chain_ts[k] = [ts for ts, _ in rev]
        chain_val[k] = [v for _, v in rev]

    checked_pairs = 0
    for ts, lo, hi, out in scans:
        a = bisect_left(keys, lo)
        b = bisect_right(keys, hi)
        expected = []
        for k in keys[a:b]:
            i = bisect_right(chain_ts[k], ts) - 1
            if i >= 0 and chain_val[k][i] is not None:
                expected.append((k, chain_val[k][i]))
        if out != expected:
            extra = [p for p in out if p not in expected][:3]
            missing = [p for p in expected if p not in out][:3]
            return _result(6, "snapshot-ranges", False,
                           f"scan at ts {ts} over [{lo},{hi}]: extra {extra}, missing {missing}", t0)
        checked_pairs += len(out)

    merged = dict(prefill_val)
    for w in range(nwriters):
        merged.update(final[w])
    expected_live = sorted((k, v) for k, v in merged.items() if v is not None)
    got = index.range(keys[0], keys[-1] - keys[0])
    ok = got == expected_live
    detail = (f"{len(scans)} snapshots ({checked_pairs} pairs) consistent; "
              f"quiescent range equals the oracle ({len(expected_live)} pairs)"
              if ok else
              f"quiescent range returned {len(got)} pairs, oracle has {len(expected_live)}")
    return _result(6, "snapshot-ranges", ok, detail, t0)


def criterion_7_workload_fidelity(quick: bool = False) -> CriterionResult:
    """Preset mixes realize their declared frequencies within 0.5%."""
    t0 = time.perf_counter()
    ops = 100_000 if quick else 1_000_000
    keys = generate_dataset(DatasetSpec(source="uniform", size=200_000, seed=5))
    problems = []
    for preset in ("read-heavy", "update-heavy"):
        index, _ = prepare_index(keys, len(keys) // 2, seed=5)
        spec = make_workload(preset, total_ops=ops, threads=1, seed=5)
        report = run_workload(index, keys, spec, label=preset)
        sf, inf, df, _ = report.realized_mix()
        for name, got, want in (("search", sf, spec.mix[0]),
                                ("insert", inf, spec.mix[1]),
                                ("delete", df, spec.mix[2])):
            if abs(got - want) > 0.005:
                problems.append(f"{preset} {name}: {got:.4f} vs {want:.4f}")
    ok = not problems
    detail = (f"read-heavy and update-heavy within 0.5% at {ops} ops"
              if ok else "; ".join(problems))
    return _result(7, "workload-fidelity", ok, detail, t0)


def criterion_8_scaling(quick: bool = False) -> CriterionResult:
    """Read-heavy throughput at 8 threads vs 1 thread (needs >= 8 cores)."""
    t0 = time.perf_counter()
    cores = os.cpu_count() or 1
    size = 100_000 if quick else 1_000_000
    ops = 50_000 if quick else 500_000
    keys = generate_dataset(DatasetSpec(source="uniform", size=size, seed=11))

    def throughput(threads: int, n_ops: int) -> float:
        index, _ = prepare_index(keys, len(keys) // 2, seed=11)
        spec = make_workload("read-heavy", total_ops=n_ops, threads=threads, seed=11)
        return run_workload(index, keys, spec).mops

    if cores < 8:
        # the criterion preconditions a >= 8-core host; exercise the
        # measurement path anyway, but one short run of each is noise, so
        # report no figure
        smoke_ops = 20_000 if quick else 50_000
        throughput(1, smoke_ops)
        throughput(2, smoke_ops)
        detail = (f"not evaluated: host has {cores} core(s), criterion requires >= 8; "
                  f"the 1-thread and 2-thread smoke runs completed")
        return _result(8, "scaling-sanity", True, detail, t0, skipped=True)

    m1 = throughput(1, ops)
    m8 = throughput(8, ops)
    ratio = m8 / m1 if m1 > 0 else 0.0
    ok = ratio >= 2.5
    detail = f"8T {m8:.3f} / 1T {m1:.3f} Mops/s = {ratio:.2f}x (need >= 2.5x)"
    return _result(8, "scaling-sanity", ok, detail, t0)


def criterion_9_frozen_reads(quick: bool = False) -> CriterionResult:
    """Reads against bins frozen mid-transformation stay correct, a new key
    bounces, a delete is taken at once, and helping completes the
    replacement losslessly."""
    t0 = time.perf_counter()
    cfg = IndexConfig(olb_threshold=4, tlb_fanout=2, tlb_threshold=6)
    index = LearnedIndex.build([(10, 100), (20, 200)], cfg)
    for k in (12, 14, 16):
        index.insert(k, k * 10)
    index.delete(14)

    node, slot, bin_ = index.seek(12)
    problems = []
    if not isinstance(bin_, OneLevelBin):
        problems.append(f"expected a one-level bin, got {bin_!r}")
    else:
        freeze_bin(bin_)
        if index.search(12) != 120 or index.search(16) != 160:
            problems.append("search through a frozen bin returned wrong values")
        if index.search(14) is not None:
            problems.append("deleted key visible through a frozen bin")
        if index.range(10, 10) != [(10, 100), (12, 120), (16, 160), (20, 200)]:
            problems.append("range over a frozen bin returned wrong pairs")
        if insert_bin(bin_, 13, 130, index.clock) is not UNDER_MAKE_MODEL:
            problems.append("insert into a frozen bin did not bounce")
        if index.delete(12) is not True or index.search(12) is not None:
            problems.append("delete through a frozen bin was not visible at once")
        if node.children[slot] is not bin_:
            problems.append("a delete replaced the frozen bin")
        index.help_make_model(node, slot, bin_)
        replaced = node.children[slot]
        if replaced is bin_:
            problems.append("helping did not replace the frozen bin")
        if (index.search(12) is not None or index.search(16) != 160
                or index.search(14) is not None
                or index.range(10, 10) != [(10, 100), (16, 160), (20, 200)]):
            problems.append("values changed across the transformation")
        if not index.insert(13, 130) or index.search(13) != 130:
            problems.append("post-transformation insert failed")
        report = audit_structure(index)
        if not report.ok:
            problems.append(f"audit findings: {report.findings[:2]}")
    ok = not problems
    detail = ("frozen-bin searches/scans correct, a new key bounces, a delete lands at once, "
              "helping preserves all pairs"
              if ok else "; ".join(problems))
    return _result(9, "frozen-bin-reads", ok, detail, t0)


ALL_CRITERIA = (
    (1, criterion_1_sequential_conformance),
    (2, criterion_2_model_soundness),
    (3, criterion_3_fit_determinism),
    (4, criterion_4_no_lost_pairs),
    (5, criterion_5_linearizability),
    (6, criterion_6_snapshot_ranges),
    (7, criterion_7_workload_fidelity),
    (8, criterion_8_scaling),
    (9, criterion_9_frozen_reads),
)


def run_criteria(numbers=None, quick: bool = False) -> list[CriterionResult]:
    wanted = set(numbers) if numbers else {n for n, _ in ALL_CRITERIA}
    return [fn(quick) for n, fn in ALL_CRITERIA if n in wanted]
