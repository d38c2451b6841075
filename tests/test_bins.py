"""Lock-free sorted bins: splice, freeze, collect, and reshape."""

import random
import sys
import threading
import time

from hypothesis import given, settings, strategies as st

from lfindex import bins as bins_mod
from lfindex.bins import (
    UNDER_MAKE_MODEL,
    OneLevelBin,
    TwoLevelBin,
    bin_new,
    collect_frozen,
    delete_bin,
    freeze_bin,
    insert_bin,
    list_for,
    olb_to_tlb,
    scan_bin,
    search_bin,
)
from lfindex.core import (
    GlobalClock,
    UNSET_TS,
    VersionedValue,
    read_value_latest,
    set_cas_hook,
)
from lfindex.index import LearnedIndex
from lfindex.verify import audit_structure

BIG_TS = 2**62


def put(bin_, key, value, clock):
    """``insert_bin`` into the list of ``bin_`` that owns ``key``, as the
    index calls it."""
    return insert_bin(bin_, list_for(bin_, key), key, value, clock)


def make_olb(pairs, clock):
    it = iter(pairs)
    k, v = next(it)
    olb, _ = bin_new(k, v)
    for k, v in it:
        assert put(olb, k, v, clock) is True
    return olb


def list_keys(lst):
    items = lst.items
    return items[:len(items) >> 1]


def array_faults(lst):
    """What is wrong with a list's array: an odd length, keys not ascending,
    a chain head that is not a version, or a count that disagrees."""
    items = lst.items
    n = len(items) >> 1
    faults = []
    if len(items) % 2:
        faults.append("odd length")
    if any(a >= b for a, b in zip(items[:n], items[1:n])):
        faults.append("keys not ascending")
    if not all(isinstance(head, VersionedValue) for head in items[n:]):
        faults.append("a head that is not a version")
    if lst.size != n:
        faults.append(f"size {lst.size}, {n} keys")
    return faults


class TestBinNew:
    def test_single_pair(self):
        clock = GlobalClock(0)
        olb, ver = bin_new(5, 100)
        assert list_keys(olb) == [5]
        assert olb.size == 1
        found = search_bin(olb, 5)
        assert olb.items == [5, found]
        assert found is ver
        assert read_value_latest(found, clock) == 100

    def test_key_zero(self):
        clock = GlobalClock(0)
        olb, _ = bin_new(0, 1)
        assert list_keys(olb) == [0]
        assert search_bin(olb, 0) is not None

    def test_version_is_unstamped(self):
        # the index stamps it after the CAS that publishes the bin
        olb, ver = bin_new(9, 9)
        assert search_bin(olb, 9) is ver
        assert ver.ts == UNSET_TS


class TestInsertBin:
    def test_splices_between_neighbors(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        assert put(olb, 5, 50, clock) is True
        assert list_keys(olb) == [3, 5, 7]
        assert olb.size == 3

    def test_equal_value_update_returns_false(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        assert put(olb, 7, 70, clock) is False
        assert olb.size == 2

    def test_changed_value_update_returns_true(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30)], clock)
        assert put(olb, 3, 99, clock) is True
        assert read_value_latest(search_bin(olb, 3), clock) == 99
        assert olb.size == 1  # update, not a splice

    def test_frozen_bin_bounces(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        assert put(olb, 1, 10, clock) is UNDER_MAKE_MODEL

    def test_frozen_bin_bounces_overwrites(self):
        # a frozen bin never changes: an overwrite bounces to help the
        # retrain, and an equal payload answers False and writes nothing
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        items, head, writes = olb.items, search_bin(olb, 7), olb.writes
        assert put(olb, 7, 71, clock) is UNDER_MAKE_MODEL
        assert put(olb, 7, 70, clock) is False
        assert olb.items is items and items[3] is head and head.vnext is None
        assert (olb.size, olb.writes) == (2, writes)
        assert read_value_latest(search_bin(olb, 7), clock) == 70

    def test_an_overwrite_stores_its_head_in_place_and_counts_it(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        items, old = olb.items, search_bin(olb, 7)
        assert put(olb, 7, 71, clock) is True
        assert olb.items is items and olb.writes == 1
        assert items[3].vnext is old and items[3].val == 71

    def test_insert_below_head_and_above_tail(self):
        clock = GlobalClock(0)
        olb = make_olb([(50, 1)], clock)
        assert put(olb, 10, 2, clock) is True
        assert put(olb, 90, 3, clock) is True
        assert list_keys(olb) == [10, 50, 90]

    def test_a_lost_splice_retries_with_the_node_it_made_first(self, monkeypatch):
        # another insert publishes 25 after this insert of 20 copied the
        # list's array, so the first splice fails on an unfrozen bin; the
        # retry copies the newer array and splices the very chain head and
        # version made on the first attempt
        index = LearnedIndex.build([(0, 0), (100, 9)])
        for k in (10, 30):
            assert index.insert(k, k) is True
        _, _, olb = index.seek(20)
        assert isinstance(olb, OneLevelBin) and olb.frozen is None
        attempts = []  # (keys expected, array made, the new key's head)
        real_splice = bins_mod.splice

        def losing_splice(owner, lst, expected, writes, new):
            n = len(new) >> 1
            if 20 not in new[:n]:
                return real_splice(owner, lst, expected, writes, new)
            attempts.append((expected[:n - 1], new, new[n + new.index(20)]))
            if len(attempts) == 1:
                assert index.insert(25, 25) is True
            return real_splice(owner, lst, expected, writes, new)

        monkeypatch.setattr(bins_mod, "splice", losing_splice)
        assert index.insert(20, 20) is True
        assert len(attempts) == 2
        (first_old, _, first), (second_old, second_new, again) = attempts
        assert again is first and first.val == 20
        assert (first_old, second_old) == ([10, 30], [10, 25, 30])
        # the list holds the very array its winning splice made
        assert olb.items is second_new and search_bin(olb, 20) is first
        assert first.ts != UNSET_TS
        assert list_keys(olb) == [10, 20, 25, 30]
        assert olb.size == 4
        report = audit_structure(index)
        assert report.ok, report.findings[:3]

    def test_a_copy_made_before_an_overwrite_is_not_published(self, monkeypatch):
        # an overwrite of 30 lands in place after this insert of 20 copied
        # the list's array: the splice must fail on the write count, or the
        # copy, which holds 30's old head, would lose the overwrite
        index = LearnedIndex.build([(0, 0), (100, 9)])
        for k in (10, 30):
            assert index.insert(k, k) is True
        _, _, olb = index.seek(20)
        attempts = []
        real_splice = bins_mod.splice

        def overwritten_splice(owner, lst, expected, writes, new):
            attempts.append(lst.items is expected)
            if len(attempts) == 1:
                assert index.insert(30, 31) is True  # in place, same array
                assert lst.items is expected and lst.writes == writes + 1
            return real_splice(owner, lst, expected, writes, new)

        monkeypatch.setattr(bins_mod, "splice", overwritten_splice)
        assert index.insert(20, 20) is True
        assert attempts == [True, True]  # the retry copied the written array
        assert [index.search(k) for k in (10, 20, 30)] == [10, 20, 31]
        assert [v for v, _ in history(search_bin(olb, 30))] == [31, 30]
        report = audit_structure(index)
        assert report.ok, report.findings[:3]


def history(head):
    """[(val, ts)] of a chain, newest first."""
    out = []
    while head is not None:
        out.append((head.val, head.ts))
        head = head.vnext
    return out


class TestDeleteBin:
    def test_marks_payload_absent(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        assert delete_bin(olb, 3, clock) is True
        ref = search_bin(olb, 3)
        assert ref is not None  # never physically removed
        assert read_value_latest(ref, clock) is None
        assert list_keys(olb) == [3, 7]

    def test_absent_key(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        assert delete_bin(olb, 9, clock) is False

    def test_double_delete(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30)], clock)
        assert delete_bin(olb, 3, clock) is True
        assert delete_bin(olb, 3, clock) is False

    def test_frozen_bin_bounces_the_delete(self):
        # a freeze stops every write: the delete bounces to help the
        # retrain, and the collected head is the one the freeze kept
        clock = GlobalClock(0)
        olb = make_olb([(3, 30)], clock)
        freeze_bin(olb)
        assert delete_bin(olb, 3, clock) is UNDER_MAKE_MODEL
        keys, versions = collect_frozen(olb, clock)
        assert keys == [3]
        assert read_value_latest(versions[0], clock) == 30
        assert delete_bin(olb, 4, clock) is False


class TestSearchBin:
    def test_finds_present_key(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        assert search_bin(olb, 7) is olb.items[3]
        assert read_value_latest(search_bin(olb, 7), clock) == 70
        assert search_bin(olb, 4) is None

    def test_frozen_list_still_readable(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        assert search_bin(olb, 7) is olb.items[3]

    def test_two_level_dispatch(self):
        clock = GlobalClock(0)
        left = make_olb([(3, 30), (7, 70)], clock)
        right = make_olb([(12, 120)], clock)
        tlb = TwoLevelBin([10], [left, right], 3)
        assert search_bin(tlb, 12) is right.items[1]
        assert search_bin(tlb, 7) is left.items[3]
        assert search_bin(tlb, 10) is None
        # oracle: linear scan over all children agrees
        for k in range(15):
            flat = k in (3, 7, 12)
            assert (search_bin(tlb, k) is not None) == flat


class TestScanBin:
    def test_interval_filter_ascending(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 1), (5, 2), (9, 3)], clock)
        out = []
        scan_bin(olb, 4, 9, BIG_TS, out, clock)
        assert out == [(5, 2), (9, 3)]

    def test_empty_interval(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 1), (5, 2)], clock)
        out = []
        scan_bin(olb, 6, 7, BIG_TS, out, clock)
        assert out == []

    def test_reads_the_version_at_the_scan_time(self):
        clock = GlobalClock(0)
        old = VersionedValue(111, 4)
        head = VersionedValue(222, 6, old)
        olb = OneLevelBin([5, head])
        out = []
        scan_bin(olb, 0, 10, 5, out, clock)
        assert out == [(5, 111)]

    def test_skips_deleted_and_too_new_keys(self):
        clock = GlobalClock(10)
        olb = make_olb([(1, 1), (2, 2), (3, 3)], clock)
        delete_bin(olb, 2, clock)
        out = []
        scan_bin(olb, 0, 9, BIG_TS, out, clock)
        assert out == [(1, 1), (3, 3)]
        # at ts below every write, nothing is visible
        out = []
        scan_bin(olb, 0, 9, 5, out, clock)
        assert out == []


@given(st.sets(st.integers(0, 300), max_size=60), st.sets(st.integers(0, 300), max_size=20),
       st.one_of(st.none(), st.integers(-5, 305)), st.one_of(st.none(), st.integers(-5, 305)))
@settings(max_examples=150, deadline=None)
def test_a_scan_reads_the_keys_its_bounds_admit(keys, deleted, lo, hi):
    # bisected bounds over every child list: a bound of None admits all,
    # and no key at a separator or at either end of a list is lost
    clock = GlobalClock(0)
    tlb = split(range(0, 300, 7), 4, clock)
    live = dict.fromkeys(range(0, 300, 7))
    for k in sorted(keys):
        put(tlb, k, k, clock)
        live[k] = None
    for k in deleted:
        delete_bin(tlb, k, clock)
    want = [(k, k) for k in sorted(live) if k not in deleted
            and (lo is None or k >= lo) and (hi is None or k <= hi)]
    out = []
    scan_bin(tlb, lo, hi, BIG_TS, out, clock)
    assert out == want


class TestFreeze:
    def test_freeze_then_mutate_bounces(self):
        # a splice, an overwrite and a delete all bounce
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        assert put(olb, 5, 50, clock) is UNDER_MAKE_MODEL
        assert put(olb, 7, 71, clock) is UNDER_MAKE_MODEL
        assert delete_bin(olb, 3, clock) is UNDER_MAKE_MODEL
        keys, versions = collect_frozen(olb, clock)
        assert keys == [3, 7]
        assert [v.val for v in versions] == [30, 70]

    def test_freeze_is_one_step_for_either_kind_of_bin(self):
        # the bin's word, set once, however many lists and links it has
        clock = GlobalClock(0)
        olb = make_olb([(i, i) for i in range(1, 40)], clock)
        split = make_olb([(i, i) for i in range(1, 40)], clock)
        freeze_bin(split)
        tlb = olb_to_tlb(*collect_frozen(split, clock), fanout=4)
        for bin_ in (olb, tlb):
            steps = []
            set_cas_hook(lambda cell, ok: steps.append((cell, ok)))
            try:
                freeze_bin(bin_)
            finally:
                set_cas_hook(None)
            assert steps == [(bin_, True)]
            assert bin_.frozen is not None

    def test_freeze_is_idempotent(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        word = olb.frozen
        items = olb.items
        steps = []
        set_cas_hook(lambda cell, ok: steps.append((cell, ok)))
        try:
            freeze_bin(olb)
        finally:
            set_cas_hook(None)
        assert steps == [(olb, False)]
        assert olb.frozen is word
        assert olb.items is items
        assert collect_frozen(olb, clock)[0] == [3, 7]

    def test_two_level_freeze_stops_splices_into_every_list(self):
        # the child lists are reachable only through the bin, so its word
        # guards them all and their own words stay None
        clock = GlobalClock(0)
        olb = make_olb([(k, k) for k in range(0, 80, 10)], clock)
        freeze_bin(olb)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=4)
        freeze_bin(tlb)
        for lst, sep in zip(tlb.children, tlb.keys + [100]):
            assert lst.frozen is None
            before = list_keys(lst)
            assert put(tlb, sep - 1, 1, clock) is UNDER_MAKE_MODEL
            assert list_keys(lst) == before
        assert collect_frozen(tlb, clock)[0] == list(range(0, 80, 10))

    def test_racing_insert_is_either_in_or_bounced(self):
        # never a silently dropped splice: True implies visible after collect
        rnd = random.Random(5)
        hook_rnd = random.Random(6)
        set_cas_hook(lambda c, ok: time.sleep(1e-5) if hook_rnd.random() < 0.3 else None)
        try:
            for trial in range(150):
                clock = GlobalClock(0)
                olb = make_olb([(2, 2), (8, 8)], clock)
                key = rnd.choice([1, 5, 9])
                result = [None]
                barrier = threading.Barrier(2)

                def splice():
                    barrier.wait()
                    result[0] = put(olb, key, 77, clock)

                def chill():
                    barrier.wait()
                    freeze_bin(olb)

                ts = [threading.Thread(target=splice), threading.Thread(target=chill)]
                for t in ts:
                    t.start()
                for t in ts:
                    t.join()
                keys, _ = collect_frozen(olb, clock)
                if result[0] is True:
                    assert key in keys, f"trial {trial}: spliced key dropped"
                else:
                    assert result[0] is UNDER_MAKE_MODEL
                    assert key not in keys
        finally:
            set_cas_hook(None)


def split(keys, fanout, clock):
    """A two-level bin over ``keys`` (payload = key), split from a frozen
    one-level bin as the index splits one."""
    olb = make_olb([(k, k) for k in keys], clock)
    freeze_bin(olb)
    return olb_to_tlb(*collect_frozen(olb, clock), fanout=fanout)


class TestWalkStart:
    """A read or an insert starts at one load of its list's array, then
    bisects the array's keys."""

    def test_an_empty_child_list_takes_keys_and_walks_them(self):
        # fewer keys than the fanout: the last two children start empty
        clock = GlobalClock(0)
        tlb = split([10, 20], 4, clock)
        assert [c.items for c in tlb.children[2:]] == [[], []]
        last = tlb.children[3]
        for k in (30, 25, 40, 35, 50):
            assert put(tlb, k, k, clock) is True
            assert array_faults(last) == []
        assert list_keys(last) == [25, 30, 35, 40, 50]
        for k in (25, 30, 35, 40, 50):
            assert read_value_latest(search_bin(tlb, k), clock) == k
        for k in (21, 26, 36, 45, 60):
            assert search_bin(tlb, k) is None
        assert delete_bin(tlb, 35, clock) is True
        out = []
        scan_bin(tlb, 26, 45, BIG_TS, out, clock)
        assert out == [(30, 30), (40, 40)]

    @given(st.lists(st.integers(0, 400), max_size=80), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_arrays_stay_whole_after_every_splice(self, keys, ascending):
        clock = GlobalClock(0)
        tlb = split(range(0, 400, 16), 4, clock)
        if ascending:
            keys = sorted(keys) + [400 + k for k in sorted(keys)]
        live = set(range(0, 400, 16))
        for k in keys:
            assert put(tlb, k, k, clock) is (k not in live)
            live.add(k)
            for i, lst in enumerate(tlb.children):
                assert array_faults(lst) == [], (i, k)
        for k in range(0, 900):
            ref = search_bin(tlb, k)
            if k in live:
                assert read_value_latest(ref, clock) == k
            else:
                assert ref is None
        assert [k for lst in tlb.children for k in list_keys(lst)] == sorted(live)

    def test_racing_ascending_splices_and_freeze(self, monkeypatch):
        # three threads splice interleaved ascending keys, each copying the
        # list's tail, while a fourth freezes the list: a splice that returned
        # True is collected, and an insert bounced iff its last splice
        # failed on the frozen bin
        met_frozen = threading.local()
        real_splice = bins_mod.splice

        def watched_splice(owner, lst, expected, writes, new):
            ok = real_splice(owner, lst, expected, writes, new)
            met_frozen.flag = not ok and owner.frozen is not None
            return ok

        monkeypatch.setattr(bins_mod, "splice", watched_splice)
        rnd = random.Random(11)
        hook_rnd = random.Random(12)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        set_cas_hook(lambda c, ok: time.sleep(1e-5) if hook_rnd.random() < 0.1 else None)
        bounced = spliced = 0
        try:
            for trial in range(30):
                clock = GlobalClock(0)
                olb = make_olb([(0, 0)], clock)
                results = []
                delay = rnd.random() * 2e-3
                barrier = threading.Barrier(4)

                def splice(t):
                    barrier.wait()
                    for k in range(1 + t, 121, 3):
                        met_frozen.flag = False
                        r = put(olb, k, k, clock)
                        results.append((k, r, met_frozen.flag))

                def chill():
                    barrier.wait()
                    time.sleep(delay)
                    freeze_bin(olb)

                threads = [threading.Thread(target=splice, args=(t,)) for t in range(3)]
                threads.append(threading.Thread(target=chill))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive(), f"trial {trial}: a thread hung"
                keys, _ = collect_frozen(olb, clock)
                for k, r, met in results:
                    want = UNDER_MAKE_MODEL if met else True
                    assert r is want, f"trial {trial}: key {k} -> {r!r}, met frozen {met}"
                won = {k for k, r, _ in results if r is True}
                assert keys == sorted({0} | won), f"trial {trial}: spliced key dropped"
                assert olb.size == len(keys)
                bounced += len(results) - len(won)
                spliced += len(won)
        finally:
            set_cas_hook(None)
            sys.setswitchinterval(old_interval)
        assert bounced > 0 and spliced > 0


class TestCollectFrozen:
    def test_flat_collection(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        keys, versions = collect_frozen(olb, clock)
        assert keys == [3, 7]
        assert [v.val for v in versions] == [30, 70]
        assert all(v.ts != -1 for v in versions)

    def test_two_level_concatenation(self):
        clock = GlobalClock(0)
        left = make_olb([(1, 10), (4, 40)], clock)
        right = make_olb([(9, 90)], clock)
        tlb = TwoLevelBin([4], [left, right], 3)
        freeze_bin(tlb)
        keys, versions = collect_frozen(tlb, clock)
        assert keys == [1, 4, 9]
        assert [v.val for v in versions] == [10, 40, 90]

    def test_deleted_keys_are_retained(self):
        clock = GlobalClock(0)
        olb = make_olb([(2, 20), (4, 40), (6, 60)], clock)
        delete_bin(olb, 4, clock)
        freeze_bin(olb)
        keys, versions = collect_frozen(olb, clock)
        assert keys == [2, 4, 6]
        assert versions[1].val is None


class TestOlbToTlb:
    def test_even_split(self):
        clock = GlobalClock(0)
        olb = make_olb([(i, i) for i in range(8)], clock)
        freeze_bin(olb)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=4)
        sizes = [len(list_keys(c)) for c in tlb.children]
        assert sizes == [2, 2, 2, 2]
        assert tlb.size == 8

    def test_remainder_goes_to_the_front(self):
        clock = GlobalClock(0)
        olb = make_olb([(i, i) for i in range(5)], clock)
        freeze_bin(olb)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=4)
        sizes = [len(list_keys(c)) for c in tlb.children]
        assert sizes == [2, 1, 1, 1]

    def test_separators_are_last_keys_of_children(self):
        clock = GlobalClock(0)
        olb = make_olb([(i, i) for i in range(10, 90, 10)], clock)
        freeze_bin(olb)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=4)
        assert tlb.keys == [20, 40, 60]
        for k in range(10, 90, 10):
            assert read_value_latest(search_bin(tlb, k), clock) == k

    def test_version_heads_are_shared_not_copied(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        old_head = search_bin(olb, 3)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=2)
        # the new bin holds the retired list's head, and a write into the
        # new bin puts its version on top of it, leaving the retired one be
        assert search_bin(tlb, 3) is old_head
        assert put(tlb, 3, 999, clock) is True
        assert search_bin(tlb, 3).vnext is old_head
        assert search_bin(olb, 3) is old_head
        assert read_value_latest(search_bin(tlb, 3), clock) == 999

    def test_single_key_fanout_two(self):
        clock = GlobalClock(0)
        olb = make_olb([(5, 50)], clock)
        freeze_bin(olb)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=2)
        assert read_value_latest(search_bin(tlb, 5), clock) == 50
        assert tlb.size == 1
        assert [c.items for c in tlb.children] == [[5, search_bin(tlb, 5)], []]


class TestConcurrentBinOps:
    def test_disjoint_inserts_all_land(self):
        clock = GlobalClock(0)
        olb = make_olb([(0, 0)], clock)
        shares = [list(range(1 + t, 400, 4)) for t in range(4)]
        hook_rnd = random.Random(9)
        set_cas_hook(lambda c, ok: time.sleep(1e-5) if hook_rnd.random() < 0.02 else None)
        try:
            def run(keys):
                for k in keys:
                    assert put(olb, k, k, clock) is True

            threads = [threading.Thread(target=run, args=(s,)) for s in shares]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            set_cas_hook(None)
        got = list_keys(olb)
        assert got == sorted(got)
        assert got == [0] + sorted(k for s in shares for k in s)
        assert olb.size == len(got)

    def test_counts_are_exact_at_every_splice(self):
        # racing inserts into one two-level bin; an observer inside each
        # successful splice's lock reads the bin: every write to a list is
        # in its splice, so the counts and arrays are exact at that instant
        clock = GlobalClock(0)
        olb = make_olb([(k, k) for k in range(0, 800, 100)], clock)
        freeze_bin(olb)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=4)
        stall_rnd = random.Random(21)
        bad = []
        checked = [0]

        def observe(target, ok):
            if ok and isinstance(target, list):  # a splice, not a chain
                checked[0] += 1
                total = 0
                for i, lst in enumerate(tlb.children):
                    faults = array_faults(lst)
                    if faults:
                        bad.append(f"child {i}: {faults}")
                    total += lst.size
                if tlb.size != total:
                    bad.append(f"bin size {tlb.size}, lists hold {total}")
            if stall_rnd.random() < 0.1:
                time.sleep(1e-5)

        shares = [list(range(1 + t, 800, 4)) for t in range(4)]
        for share in shares:
            random.Random(share[0]).shuffle(share)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        set_cas_hook(observe)
        try:
            def run(keys):
                for k in keys:
                    if k % 100:
                        assert put(tlb, k, k, clock) is True

            threads = [threading.Thread(target=run, args=(s,)) for s in shares]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), "an inserting thread hung"
        finally:
            set_cas_hook(None)
            sys.setswitchinterval(old_interval)
        assert not bad, bad[:3]
        assert checked[0] == 800 - 8
        assert tlb.size == 800
        assert [k for lst in tlb.children for k in list_keys(lst)] == list(range(800))


class TestCopyOnWrite:
    """A list's keys never change once published: a splice publishes a
    copy, and only if the list still holds the array it copied and no head
    write landed in it since."""

    def test_a_reader_holding_an_old_array_still_finds_its_keys(self):
        clock = GlobalClock(0)
        tlb = split(range(0, 400, 10), 4, clock)
        lst = tlb.children[1]
        old = lst.items
        held = list(old)
        for k in range(105, 200, 10):
            assert put(tlb, k, k, clock) is True
        assert lst.items is not old
        # the array the reader loaded is unchanged, and every key it held
        # has the same head in the newest array
        assert old == held
        n = len(old) >> 1
        newest = OneLevelBin(lst.items)
        for key, ref in zip(old[:n], old[n:]):
            assert search_bin(newest, key) is ref
        assert set(old[:n]) < set(list_keys(lst))

    def test_a_splice_with_a_stale_array_writes_nothing(self):
        clock = GlobalClock(0)
        tlb = split(range(0, 80, 10), 4, clock)
        lst = tlb.children[0]
        stale = lst.items
        assert put(tlb, 5, 5, clock) is True
        after = lst.items
        sizes = (lst.size, tlb.size)
        steps = []
        set_cas_hook(lambda target, ok: steps.append((target, ok)))
        try:
            assert not bins_mod.splice(tlb, lst, stale, lst.writes, stale[:2] + [3] + stale[2:])
        finally:
            set_cas_hook(None)
        assert lst.items is after and (lst.size, tlb.size) == sizes
        # the hook sees the array the splice found, which a success stored
        assert len(steps) == 1 and steps[0][0] is after and steps[0][1] is False


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 30), st.integers(0, 3)),
                min_size=1, max_size=60))
@settings(max_examples=120, deadline=None)
def test_random_single_thread_ops_stay_sorted_and_match_a_dict(ops):
    clock = GlobalClock(0)
    olb = None
    live = {}
    everything = set()
    for is_insert, k, v in ops:
        if olb is None:
            if not is_insert:
                continue
            olb, _ = bin_new(k, v)
            live[k] = v
            everything.add(k)
            continue
        if is_insert:
            want = live.get(k) != v
            assert put(olb, k, v, clock) is want
            live[k] = v
            everything.add(k)
        else:
            want = k in live
            assert delete_bin(olb, k, clock) is want
            live.pop(k, None)
    if olb is None:
        return
    assert list_keys(olb) == sorted(everything)
    assert olb.size == len(everything)
    out = []
    scan_bin(olb, 0, 100, BIG_TS, out, clock)
    assert out == sorted(live.items())
