"""Lock-free sorted bins: splice, freeze, collect, and reshape."""

import random
import sys
import threading
import time

from hypothesis import given, settings, strategies as st

from lfindex import bins as bins_mod
from lfindex.bins import (
    KNode,
    UNDER_MAKE_MODEL,
    OneLevelBin,
    TwoLevelBin,
    bin_new,
    collect_frozen,
    delete_bin,
    freeze_bin,
    insert_bin,
    olb_to_tlb,
    scan_bin,
    search_bin,
)
from lfindex.core import (
    END,
    AtomicRef,
    GlobalClock,
    Link,
    UNSET_TS,
    VersionedValue,
    read_value_latest,
    set_cas_hook,
    write_value,
)
from lfindex.index import LearnedIndex
from lfindex.verify import audit_structure

BIG_TS = 2**62


def make_olb(pairs, clock):
    it = iter(pairs)
    k, v = next(it)
    olb, _ = bin_new(k, v)
    for k, v in it:
        assert insert_bin(olb, k, v, clock) is True
    return olb


def list_keys(olb):
    out = []
    node = olb.head.load().target
    while node is not None:
        out.append(node.item)
        node = node.next.load().target
    return out


def link_objects(olb):
    """Every link of ``olb``, head first."""
    links = [olb.head.load()]
    while links[-1].target is not None:
        links.append(links[-1].target.next.load())
    return links


class TestBinNew:
    def test_single_pair(self):
        clock = GlobalClock(0)
        olb, ver = bin_new(5, 100)
        assert list_keys(olb) == [5]
        assert olb.size == 1
        found = search_bin(olb, 5)
        assert found is not None
        assert found.version.load() is ver
        assert read_value_latest(found.version, clock) == 100

    def test_key_zero(self):
        clock = GlobalClock(0)
        olb, _ = bin_new(0, 1)
        assert list_keys(olb) == [0]
        assert search_bin(olb, 0) is not None

    def test_version_is_unstamped(self):
        # the index stamps it after the CAS that publishes the bin
        olb, ver = bin_new(9, 9)
        assert search_bin(olb, 9).version.load() is ver
        assert ver.ts == UNSET_TS


class TestInsertBin:
    def test_splices_between_neighbors(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        assert insert_bin(olb, 5, 50, clock) is True
        assert list_keys(olb) == [3, 5, 7]
        assert olb.size == 3

    def test_equal_value_update_returns_false(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        assert insert_bin(olb, 7, 70, clock) is False
        assert olb.size == 2

    def test_changed_value_update_returns_true(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30)], clock)
        assert insert_bin(olb, 3, 99, clock) is True
        assert read_value_latest(search_bin(olb, 3).version, clock) == 99
        assert olb.size == 1  # update, not a splice

    def test_frozen_bin_bounces(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        assert insert_bin(olb, 1, 10, clock) is UNDER_MAKE_MODEL

    def test_frozen_bin_takes_overwrites(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        assert insert_bin(olb, 7, 71, clock) is True
        assert insert_bin(olb, 7, 71, clock) is False
        assert read_value_latest(search_bin(olb, 7).version, clock) == 71
        assert olb.size == 2

    def test_insert_below_head_and_above_tail(self):
        clock = GlobalClock(0)
        olb = make_olb([(50, 1)], clock)
        assert insert_bin(olb, 10, 2, clock) is True
        assert insert_bin(olb, 90, 3, clock) is True
        assert list_keys(olb) == [10, 50, 90]

    def test_a_lost_splice_retries_with_the_node_it_made_first(self, monkeypatch):
        # another insert splices 25 into the cell this insert of 20 walked
        # to, so the first splice fails on an unfrozen bin; the retry
        # expects the link to 25 instead of 30 and splices the very node
        # and version made on the first attempt
        index = LearnedIndex.build([(0, 0), (100, 9)])
        for k in (10, 30):
            assert index.insert(k, k) is True
        _, _, olb = index.seek(20)
        assert isinstance(olb, OneLevelBin) and olb.frozen is None
        attempts = []  # (new link, the link it expects, its node's version)
        real_splice = bins_mod.splice

        def losing_splice(owner, lst, cell, expected, new):
            knode = new.target
            if knode.item == 20:
                attempts.append((new, expected, knode.version.load()))
                if len(attempts) == 1:
                    assert index.insert(25, 25) is True
            return real_splice(owner, lst, cell, expected, new)

        monkeypatch.setattr(bins_mod, "splice", losing_splice)
        assert index.insert(20, 20) is True
        assert len(attempts) == 2
        (first, first_next, fresh), (second, second_next, again) = attempts
        assert second is first and again is fresh
        assert (first_next.target.item, second_next.target.item) == (30, 25)
        knode = search_bin(olb, 20)
        assert knode is first.target and knode.version.load() is fresh
        # its next link is the very link its successful splice replaced
        assert knode.next.load() is second_next
        assert fresh.val == 20 and fresh.ts != UNSET_TS
        assert list_keys(olb) == [10, 20, 25, 30]
        assert olb.size == 4
        report = audit_structure(index)
        assert report.ok, report.findings[:3]


class TestDeleteBin:
    def test_marks_payload_absent(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        assert delete_bin(olb, 3, clock) is True
        node = search_bin(olb, 3)
        assert node is not None  # never physically unlinked
        assert read_value_latest(node.version, clock) is None
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

    def test_frozen_bin_takes_the_write(self):
        # a freeze stops splices, not chain writes
        clock = GlobalClock(0)
        olb = make_olb([(3, 30)], clock)
        freeze_bin(olb)
        assert delete_bin(olb, 3, clock) is True
        keys, versions = collect_frozen(olb, clock)
        assert keys == [3]
        assert read_value_latest(versions[0], clock) is None
        assert delete_bin(olb, 4, clock) is False


class TestSearchBin:
    def test_finds_present_key(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        assert search_bin(olb, 7).item == 7
        assert search_bin(olb, 4) is None

    def test_frozen_list_still_readable(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        assert search_bin(olb, 7).item == 7

    def test_two_level_dispatch(self):
        clock = GlobalClock(0)
        left = make_olb([(3, 30), (7, 70)], clock)
        right = make_olb([(12, 120)], clock)
        tlb = TwoLevelBin([10], [left, right], 3)
        assert search_bin(tlb, 12).item == 12
        assert search_bin(tlb, 7).item == 7
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
        head = AtomicRef(VersionedValue(222, 6, old))
        node = KNode(5, head, AtomicRef(END))
        olb = OneLevelBin(node, 1)
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


class TestFreeze:
    def test_freeze_then_mutate_bounces(self):
        # a splice bounces; a delete is a chain write and goes through
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        assert insert_bin(olb, 5, 50, clock) is UNDER_MAKE_MODEL
        assert delete_bin(olb, 3, clock) is True
        keys, versions = collect_frozen(olb, clock)
        assert keys == [3, 7]
        assert read_value_latest(versions[0], clock) is None

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
        links_once = link_objects(olb)
        steps = []
        set_cas_hook(lambda cell, ok: steps.append((cell, ok)))
        try:
            freeze_bin(olb)
        finally:
            set_cas_hook(None)
        assert steps == [(olb, False)]
        assert olb.frozen is word
        assert all(a is b for a, b in zip(links_once, link_objects(olb)))
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
            assert insert_bin(tlb, sep - 1, 1, clock) is UNDER_MAKE_MODEL
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
                    result[0] = insert_bin(olb, key, 77, clock)

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


class CountingRef(AtomicRef):
    """An AtomicRef that counts the reads of its ``value``, which is how the
    index loads a cell; assigned as a cell's class."""

    __slots__ = ()
    loads = 0

    @property
    def value(self):
        CountingRef.loads += 1
        return AtomicRef.value.__get__(self)

    @value.setter
    def value(self, new):
        AtomicRef.value.__set__(self, new)


def count_link_loads(olb):
    """Make every link cell of ``olb`` count its loads; reset the count."""
    olb.head.__class__ = CountingRef
    node = olb.head.load().target
    while node is not None:
        node.next.__class__ = CountingRef
        node = node.next.load().target
    CountingRef.loads = 0


class TestWalkStart:
    def test_hint_follows_the_last_splice(self):
        clock = GlobalClock(0)
        olb, _ = bin_new(5, 50)
        assert olb.hint is olb.head.load().target
        insert_bin(olb, 9, 90, clock)
        assert olb.hint.item == 9
        insert_bin(olb, 2, 20, clock)   # below the hint: walks from the head
        assert olb.hint.item == 2
        insert_bin(olb, 9, 91, clock)   # an update splices nothing
        assert olb.hint.item == 2
        insert_bin(olb, 7, 70, clock)   # above the hint: walks on from it
        assert list_keys(olb) == [2, 5, 7, 9]

    def test_ascending_insert_loads_constant_links(self):
        clock = GlobalClock(0)
        olb = make_olb([(k, k) for k in range(200)], clock)
        count_link_loads(olb)
        assert insert_bin(olb, 1_000, 1, clock) is True
        assert 1 <= CountingRef.loads <= 2
        assert list_keys(olb) == list(range(200)) + [1_000]

    def test_split_lists_start_at_their_tails(self):
        clock = GlobalClock(0)
        olb = make_olb([(k, k) for k in range(0, 1_600, 2)], clock)
        freeze_bin(olb)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=4)
        last = tlb.children[-1]
        assert last.hint.item == 1_598
        count_link_loads(last)
        assert insert_bin(tlb, 1_600, 1, clock) is True
        assert 1 <= CountingRef.loads <= 2
        empty = olb_to_tlb([7], [AtomicRef(VersionedValue(7, 0))], fanout=2)
        assert empty.children[-1].hint is None

    def test_reads_above_the_hint_start_there(self):
        # find, delete and a scan's start share the insert's walk
        clock = GlobalClock(0)
        olb = make_olb([(k, k) for k in range(200)], clock)
        olb.hint = search_bin(olb, 190)  # any node of the list is a valid hint
        count_link_loads(olb)
        assert search_bin(olb, 195).item == 195
        assert search_bin(olb, 500) is None
        assert delete_bin(olb, 197, clock) is True
        assert delete_bin(olb, 500, clock) is False
        out = []
        scan_bin(olb, 196, 2_000, BIG_TS, out, clock)
        assert out == [(196, 196), (198, 198), (199, 199)]
        # each walk loads only the links from the hint's up to its key
        assert CountingRef.loads == 5 + 10 + 7 + 10 + (6 + 4)
        assert search_bin(olb, 150).item == 150  # below the hint: from the head
        assert CountingRef.loads > 150

    def test_racing_ascending_splices_and_freeze(self, monkeypatch):
        # three threads splice interleaved ascending keys, each starting at
        # the hint, while a fourth freezes the list: a splice that returned
        # True is collected, and an insert bounced iff its last splice
        # failed on the frozen bin
        met_frozen = threading.local()
        real_splice = bins_mod.splice

        def watched_splice(owner, lst, cell, expected, new):
            ok = real_splice(owner, lst, cell, expected, new)
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
                        r = insert_bin(olb, k, k, clock)
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
        assert [v.load().val for v in versions] == [30, 70]
        assert all(v.load().ts != -1 for v in versions)

    def test_two_level_concatenation(self):
        clock = GlobalClock(0)
        left = make_olb([(1, 10), (4, 40)], clock)
        right = make_olb([(9, 90)], clock)
        tlb = TwoLevelBin([4], [left, right], 3)
        freeze_bin(tlb)
        keys, versions = collect_frozen(tlb, clock)
        assert keys == [1, 4, 9]
        assert [v.load().val for v in versions] == [10, 40, 90]

    def test_deleted_keys_are_retained(self):
        clock = GlobalClock(0)
        olb = make_olb([(2, 20), (4, 40), (6, 60)], clock)
        delete_bin(olb, 4, clock)
        freeze_bin(olb)
        keys, versions = collect_frozen(olb, clock)
        assert keys == [2, 4, 6]
        assert versions[1].load().val is None


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
            assert search_bin(tlb, k).item == k

    def test_version_heads_are_shared_not_copied(self):
        clock = GlobalClock(0)
        olb = make_olb([(3, 30), (7, 70)], clock)
        freeze_bin(olb)
        old_node = search_bin(olb, 3)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=2)
        # a write through the retired list's head is visible in the new bin
        assert write_value(old_node.version, 999, clock)
        assert read_value_latest(search_bin(tlb, 3).version, clock) == 999

    def test_single_key_fanout_two(self):
        clock = GlobalClock(0)
        olb = make_olb([(5, 50)], clock)
        freeze_bin(olb)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=2)
        assert search_bin(tlb, 5).item == 5
        assert tlb.size == 1


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
                    assert insert_bin(olb, k, k, clock) is True

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

    def test_counts_and_hints_are_exact_at_every_splice(self):
        # racing inserts into one two-level bin; an observer inside each
        # successful splice's lock walks the bin: every write to a list is
        # in its splice, so the counts and hints are exact at that instant
        clock = GlobalClock(0)
        olb = make_olb([(k, k) for k in range(0, 800, 100)], clock)
        freeze_bin(olb)
        tlb = olb_to_tlb(*collect_frozen(olb, clock), fanout=4)
        stall_rnd = random.Random(21)
        bad = []
        checked = [0]

        def observe(cell, ok):
            if ok and isinstance(cell.value, Link):  # a list cell, not a chain
                checked[0] += 1
                total = 0
                for i, lst in enumerate(tlb.children):
                    nodes = []
                    node = lst.head.load().target
                    while node is not None:
                        nodes.append(node)
                        node = node.next.load().target
                    if lst.size != len(nodes):
                        bad.append(f"child {i}: size {lst.size}, {len(nodes)} keys")
                    if not any(lst.hint is n for n in nodes):
                        bad.append(f"child {i}: hint {lst.hint!r} not in the list")
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
                        assert insert_bin(tlb, k, k, clock) is True

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
            assert insert_bin(olb, k, v, clock) is want
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
