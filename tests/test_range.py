"""Snapshot range scans: bounds, saturation, and version visibility."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lfindex import bins as bins_mod, rangescan
from lfindex.bins import OneLevelBin, TwoLevelBin, freeze_bin
from lfindex.core import EMPTY, KEY_MAX, UNSET_TS, VersionedValue
from lfindex.index import IndexConfig, LearnedIndex, ModelNode
from lfindex.verify import SequentialOracle

SMALL = IndexConfig(olb_threshold=4, tlb_fanout=2, tlb_threshold=6)
TINY = IndexConfig(olb_threshold=4, tlb_fanout=2, tlb_threshold=8)

#: Inserted into a TINY index built over key 0, these keys leave nested
#: model nodes and one- and two-level bins.
NESTING_KEYS = list(range(2, 400, 2)) + [3, 151, 301, 5, 7, 9, 11, 13, 303, 305]


def replay(history, lo, hi, ts):
    """The pairs a scan of [lo, hi] at ``ts`` must return, from per-key
    (stamp, value-or-None) histories in write order."""
    want = []
    for k in sorted(history):
        if lo <= k <= hi:
            visible = None
            for stamp, val in history[k]:
                if stamp <= ts:
                    visible = val
            if visible is not None:
                want.append((k, visible))
    return want


def subtree(node):
    """Every child of ``node``'s subtree other than EMPTY, in key order."""
    out = []
    for child in node.children:
        if isinstance(child, ModelNode):
            out.append(child)
            out.extend(subtree(child))
        elif child is not EMPTY:
            out.append(child)
    return out


def bins_in_window(node, lo, hi):
    """The bins a scan of [lo, hi] reaches, in key order: child slot j of a
    node it enters is visited iff keys[j-1] <= hi and keys[j] >= lo."""
    keys = node.keys
    found = []
    for j, child in enumerate(node.children):
        if (j > 0 and keys[j - 1] > hi) or (j < len(keys) and keys[j] < lo):
            continue
        if isinstance(child, ModelNode):
            found.extend(bins_in_window(child, lo, hi))
        elif child is not EMPTY:
            found.append(child)
    return found


class TestBounds:
    def test_window_is_inclusive_on_both_ends(self):
        index = LearnedIndex.build([(k, k) for k in range(1, 11)])
        assert index.range(3, 4) == [(3, 3), (4, 4), (5, 5), (6, 6), (7, 7)]

    def test_exact_single_key_window(self):
        index = LearnedIndex.build([(10, 1), (15, 2), (20, 3)])
        assert index.range(15, 0) == [(15, 2)]

    def test_empty_window(self):
        index = LearnedIndex.build([(10, 1), (20, 3)])
        assert index.range(11, 8) == []

    def test_results_come_back_ascending(self):
        index = LearnedIndex.build([(10, 1), (15, 2), (20, 3)])
        assert index.range(10, 10) == [(10, 1), (15, 2), (20, 3)]

    def test_upper_bound_saturates_at_domain_edge(self):
        index = LearnedIndex.build([(0, 0), (KEY_MAX, 99)])
        # a width that would overflow must clamp, not wrap around to zero
        assert index.range(KEY_MAX - 1, KEY_MAX) == [(KEY_MAX, 99)]
        assert index.range(0, KEY_MAX) == [(0, 0), (KEY_MAX, 99)]

    def test_result_cap(self):
        index = LearnedIndex.build([(k, k) for k in range(20)])
        assert index.range(0, 19, max_results=3) == [(0, 0), (1, 1), (2, 2)]
        assert index.range(0, 19, max_results=0) == []

    def test_result_cap_over_nested_nodes_and_bins(self):
        # every cap stops the scan somewhere else: in a one- or two-level
        # bin, at a nested node's last slot, or at the parent key after it
        index = LearnedIndex.build([(0, 0)], TINY)
        for k in list(range(2, 400, 2)) + [3, 151, 301, 5, 7, 9, 11, 13, 303, 305]:
            index.insert(k, k)
        for k in (7, 150, 304):
            index.delete(k)
        kinds = set()
        stack = [index.root]
        while stack:
            node = stack.pop()
            for child in node.children:
                if isinstance(child, ModelNode):
                    kinds.add(2)
                    stack.append(child)
                elif child is not EMPTY:
                    kinds.add(child.is_one_level)
        assert kinds == {True, False, 2}  # both kinds of bins, nested nodes
        for lo, width in ((0, 1_000), (5, 300)):
            full = index.range(lo, width)
            assert len(full) > 100 and (150, 150) not in full
            for cap in range(len(full) + 1):
                assert index.range(lo, width, cap) == full[:cap], (lo, cap)

    def test_a_cap_inside_a_bin_keeps_the_oracle_prefix(self):
        # slot 1 holds a one-level bin {10, 11, 12}, slot 2 a two-level
        # bin with child lists {110, 111} and {112, 113, 114}
        pairs = [(0, 0), (100, 100), (200, 200)]
        index = LearnedIndex.build(pairs, SMALL)
        oracle = SequentialOracle.from_pairs(pairs)
        for k in (10, 11, 12, 110, 111, 112, 113, 114):
            assert index.insert(k, k) is oracle.insert(k, k) is True
        olb, tlb = (index.root.children[j] for j in (1, 2))
        assert olb.is_one_level and olb.size == 3
        assert not tlb.is_one_level and [c.size for c in tlb.children] == [2, 3]
        # cap -> the last key it keeps: inside the one-level bin, on its
        # last key, on a child list's last key, inside the second child
        # list, on the two-level bin's last key
        for cap, last in ((2, 10), (4, 12), (7, 111), (8, 112), (10, 114)):
            got = index.range(0, 300, max_results=cap)
            assert got == oracle.range(0, 300, cap)
            assert len(got) == cap and got[-1] == (last, last)
        # windows that start inside each bin, under every cap
        for lo in (0, 11, 111, 113):
            full = oracle.range(lo, 300 - lo)
            for cap in range(len(full) + 2):
                assert index.range(lo, 300 - lo, cap) == full[:cap], (lo, cap)
        assert index.range(0, 300, max_results=0) == [] == oracle.range(0, 300, 0)

    def test_bad_arguments(self):
        index = LearnedIndex.build([(1, 1)])
        with pytest.raises(ValueError):
            index.range(1, -1)
        with pytest.raises(ValueError):
            index.range(1, 1, max_results=-1)
        with pytest.raises(ValueError):
            index.range(-1, 5)


class TestVisibility:
    def test_sees_inserts_and_not_deletes(self):
        index = LearnedIndex.build([(10, 1), (20, 2), (30, 3)])
        index.insert(15, 5)
        index.delete(20)
        assert index.range(10, 20) == [(10, 1), (15, 5), (30, 3)]

    def test_scans_through_a_frozen_bin(self):
        index = LearnedIndex.build([(0, 0), (100, 9)], SMALL)
        for k in (10, 20, 30):
            index.insert(k, k)
        _, _, bin_ = index.seek(10)
        assert isinstance(bin_, OneLevelBin)
        freeze_bin(bin_)
        assert index.range(0, 100) == [(0, 0), (10, 10), (20, 20), (30, 30), (100, 9)]

    def test_scan_crosses_retrained_nodes(self):
        index = LearnedIndex.build([(0, 0), (10_000, 1)], SMALL)
        keys = list(range(50, 1050, 50))
        for k in keys:
            index.insert(k, k)
        want = [(0, 0)] + [(k, k) for k in keys]
        assert index.range(0, 2000) == want

    def test_versioned_replay_matches_scan(self):
        # mirror the clock by hand: every mutation stamps at the current
        # reading, every scan bumps first, so a scan at ts sees exactly the
        # newest mirror entry with stamp <= ts
        index = LearnedIndex.build([], SMALL)
        history = {}   # key -> list of (ts, value-or-None)
        rnd = random.Random(33)
        scans = []
        for _ in range(3_000):
            r = rnd.random()
            k = rnd.randrange(30)
            now = index.clock.read()
            if r < 0.45:
                if index.insert(k, v := rnd.randrange(9)):
                    history.setdefault(k, []).append((now, v))
            elif r < 0.7:
                if index.delete(k):
                    history.setdefault(k, []).append((now, None))
            else:
                lo, width = rnd.randrange(30), rnd.randrange(12)
                got = index.range(lo, width)
                ts = index.clock.read() - 1  # scans bump then read back
                scans.append((lo, width, ts, got))
        for lo, width, ts, got in scans:
            want = []
            for k in range(lo, min(lo + width, 29) + 1):
                visible = None
                for stamp, val in history.get(k, []):
                    if stamp <= ts:
                        visible = val
                if visible is not None:
                    want.append((k, visible))
            assert got == want, (lo, width, ts)

    def test_two_quiescent_scans_agree(self):
        index = LearnedIndex.build([(k, k % 5) for k in range(0, 300, 3)], SMALL)
        rnd = random.Random(8)
        for _ in range(500):
            k = rnd.randrange(300)
            if rnd.random() < 0.5:
                index.insert(k, rnd.randrange(5))
            else:
                index.delete(k)
        first = index.range(0, 299)
        second = index.range(0, 299)
        assert first == second


@given(st.sets(st.integers(0, 400), max_size=60),
       st.integers(0, 400), st.integers(0, 120))
@settings(max_examples=120, deadline=None)
def test_scan_equals_sorted_live_slice(keys, lo, width):
    index = LearnedIndex.build([], IndexConfig(olb_threshold=3, tlb_fanout=2,
                                               tlb_threshold=5))
    for k in keys:
        index.insert(k, k * 2)
    got = index.range(lo, width)
    assert got == [(k, k * 2) for k in sorted(keys) if lo <= k <= lo + width]
    assert [k for k, _ in got] == sorted(k for k, _ in got)


class TestScanReads:
    """``rangescan.scan`` reads a stamped head inline and walks interior
    bins unbounded; both must agree with the chain walk at any time."""

    def test_scans_at_past_times_match_the_replay(self, monkeypatch):
        # past times make heads too new, so chain walks run on model keys,
        # interior bins and edge bins, a frozen bin among them; every
        # result, capped at random, must equal the replay of the history
        rnd = random.Random(41)
        index = LearnedIndex.build([(0, 0)], TINY)
        clock = index.clock
        history = {0: [(0, 0)]}

        def write(k, v):  # a mutation stamps at the current reading
            now = clock.read()
            if index.insert(k, v) if v is not None else index.delete(k):
                history.setdefault(k, []).append((now, v))
            if rnd.random() < 0.3:
                clock.read_and_bump()

        for k in NESTING_KEYS:
            write(k, k)
        for _ in range(1_500):  # mostly overwrites and deletes, a few new keys
            k = rnd.choice(NESTING_KEYS) if rnd.random() < 0.9 else rnd.randrange(420)
            write(k, rnd.randrange(5) if rnd.random() < 0.6 else None)
        for k in range(501, 511, 2):  # five keys split a one-level bin
            write(k, k)
        children = subtree(index.root)
        assert {type(child) for child in children} == {
            OneLevelBin, TwoLevelBin, ModelNode}
        # below its threshold, a frozen bin never changes: the first write
        # of its own keys helps replace it, and that write and every later
        # one land in the replacement
        frozen = next(c for c in children
                      if isinstance(c, OneLevelBin) and c.size < TINY.olb_threshold)
        freeze_bin(frozen)
        own = frozen.items[:frozen.size]
        heads = frozen.items[frozen.size:]
        model_keys = [k for c in children if isinstance(c, ModelNode) for k in c.keys]
        for _ in range(300):
            k = rnd.choice(own) if rnd.random() < 0.5 else rnd.choice(model_keys)
            write(k, rnd.randrange(5) if rnd.random() < 0.6 else None)
        for _ in range(200):
            write(rnd.randrange(420), None)
        assert index.seek(own[0])[2] is not frozen
        assert frozen.items[frozen.size:] == heads
        # a bin frozen with no write after it stays in its slot, for the
        # scans below to read through
        frozen = next(c for c in subtree(index.root) if not isinstance(c, ModelNode))
        freeze_bin(frozen)

        calls = Counter()
        where = ["model key"]
        real_read, real_scan_bin = rangescan.read_value_at, rangescan.scan_bin

        def counted_read(ref, ts, clk):
            calls[where[0]] += 1
            return real_read(ref, ts, clk)

        def tagged_scan_bin(bin_, lo, hi, *rest):
            where[0] = "interior bin" if lo is None and hi is None else "edge bin"
            calls["frozen bin visits"] += bin_ is frozen
            try:
                return real_scan_bin(bin_, lo, hi, *rest)
            finally:
                where[0] = "model key"

        monkeypatch.setattr(rangescan, "read_value_at", counted_read)
        monkeypatch.setattr(bins_mod, "read_value_at", counted_read)
        monkeypatch.setattr(rangescan, "scan_bin", tagged_scan_bin)
        now = clock.read()
        for _ in range(400):
            lo = rnd.randrange(420)
            hi = lo + rnd.randrange(250)
            ts = rnd.randrange(now + 1)
            want = replay(history, lo, hi, ts)
            cap = None if rnd.random() < 0.3 else rnd.randrange(len(want) + 2)
            out = []
            rangescan.scan(index.root, lo, hi, ts, out, clock, cap)
            assert out == want[:cap], (lo, hi, ts, cap)
        assert set(calls) == {"model key", "interior bin", "edge bin", "frozen bin visits"}
        assert all(calls.values()), calls

        # a head published but not yet stamped, on a model key and in an
        # interior bin of a whole-range scan: a past scan walks both chains,
        # stamps the heads now and skips them, and a scan at now sees them
        node, j = next((c, j) for c in children if isinstance(c, ModelNode)
                       for j in range(len(c.keys))
                       if isinstance(c.children[j], OneLevelBin))
        items = node.children[j].items
        n = len(items) >> 1
        keys = [node.keys[j], items[0]]
        clock.read_and_bump()
        now = clock.read()
        node.versions[j] = VersionedValue(71, UNSET_TS, node.versions[j])
        items[n] = VersionedValue(72, UNSET_TS, items[n])
        heads = [node.versions[j], items[n]]
        before = calls.copy()
        out = []
        rangescan.scan(index.root, 0, 1_000, now - 1, out, clock)
        assert out == replay(history, 0, 1_000, now - 1)
        assert calls["model key"] > before["model key"]
        assert calls["interior bin"] > before["interior bin"]
        for head, k, v in zip(heads, keys, (71, 72)):
            assert head.ts == now
            history[k].append((now, v))
        out = []
        rangescan.scan(index.root, 0, 1_000, now, out, clock)
        assert out == replay(history, 0, 1_000, now)
        assert (keys[0], 71) in out and (keys[1], 72) in out

    def test_a_stamped_scan_reads_inline_and_visits_each_bin_once(self, monkeypatch):
        # on a quiescent index every head is stamped, so no scan walks a
        # chain, and every bin in the window goes through the module's
        # scan_bin name, which the paused-scan test patches
        index = LearnedIndex.build([(0, 0)], TINY)
        live = {0: 0}
        for k in NESTING_KEYS:
            index.insert(k, k)
            live[k] = k
        for k in (7, 150, 304):
            index.delete(k)
            del live[k]
        chain_walks = []
        visits = []
        real_read, real_scan_bin = rangescan.read_value_at, rangescan.scan_bin

        def counted_read(*args):
            chain_walks.append(args)
            return real_read(*args)

        def counted_scan_bin(bin_, lo, hi, *rest):
            visits.append((bin_, lo, hi))
            return real_scan_bin(bin_, lo, hi, *rest)

        monkeypatch.setattr(rangescan, "read_value_at", counted_read)
        monkeypatch.setattr(bins_mod, "read_value_at", counted_read)
        monkeypatch.setattr(rangescan, "scan_bin", counted_scan_bin)
        interior = 0
        for lo, hi in ((0, 1_000), (5, 305), (151, 152), (140, 160), (399, 400), (500, 600)):
            visits.clear()
            out = []
            rangescan.scan(index.root, lo, hi, index.clock.read(), out, index.clock)
            assert out == [(k, v) for k, v in sorted(live.items()) if lo <= k <= hi]
            assert [v[0] for v in visits] == bins_in_window(index.root, lo, hi), (lo, hi)
            interior += sum(v[1] is None and v[2] is None for v in visits)
        assert chain_walks == []
        assert interior > 0
