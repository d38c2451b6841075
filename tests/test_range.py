"""Snapshot range scans: bounds, saturation, and version visibility."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lfindex.bins import OneLevelBin, freeze_bin
from lfindex.core import KEY_MAX
from lfindex.index import IndexConfig, LearnedIndex

SMALL = IndexConfig(olb_threshold=4, tlb_fanout=2, tlb_threshold=6)


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
