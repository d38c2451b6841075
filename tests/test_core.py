"""Atomic cells, version chains, and the logical clock."""

import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lfindex import core
from lfindex.bins import UNDER_MAKE_MODEL, OneLevelBin, bin_new, insert_bin, search_bin
from lfindex.core import (
    AtomicRef,
    EMPTY,
    END,
    GlobalClock,
    VersionedValue,
    dcss,
    freeze,
    read_value_at,
    set_cas_hook,
    splice,
    write_head,
    write_version,
)
from lfindex.index import FOUND, IndexConfig, LearnedIndex


def chain(ver):
    """[(val, ts)] from the newest version to the oldest."""
    out = []
    while ver is not None:
        out.append((ver.val, ver.ts))
        ver = ver.vnext
    return out


class TestAtomicRef:
    def test_cas_succeeds_on_identity_match(self):
        obj = object()
        ref = AtomicRef(obj)
        new = object()
        assert ref.compare_and_swap(obj, new)
        assert ref.load() is new

    def test_cas_fails_on_stale_expected(self):
        ref = AtomicRef(1)
        assert ref.compare_and_swap(1, 2)
        assert not ref.compare_and_swap(1, 3)
        assert ref.load() == 2

    def test_cas_is_identity_based_not_equality(self):
        a = tuple([1, 2])
        b = tuple([1, 2])
        assert a == b and a is not b
        ref = AtomicRef(a)
        assert not ref.compare_and_swap(b, (9, 9))
        assert ref.load() is a

    def test_hook_sees_success_and_failure(self):
        events = []
        ref = AtomicRef(0)
        set_cas_hook(lambda cell, ok: events.append((cell, ok)))
        try:
            ref.compare_and_swap(0, 1)
            ref.compare_and_swap(0, 2)  # stale: value is 1
        finally:
            set_cas_hook(None)
        assert events == [(ref, True), (ref, False)]


class TestTheOneLock:
    def test_every_hooked_step_runs_under_the_one_lock(self):
        tiny = IndexConfig(olb_threshold=4)
        index = LearnedIndex.build([(0, 0), (10**6, 0)], tiny)
        held = []

        def record(_target, _ok):
            step = sys._getframe(1).f_code.co_name
            if step == "compare_and_swap":  # named by its caller
                step = sys._getframe(2).f_code.co_name
            held.append((step, core._LOCK.locked()))

        set_cas_hook(record)
        try:
            for k in range(1, 40):  # installs, splices, retrains and compactions
                index.insert(k, k)
            index.insert(0, 1)  # a root key's chain
            index.insert(5, 50)
            index.delete(7)
            assert index.range(4, 4) == [(4, 4), (5, 50), (6, 6), (8, 8)]
        finally:
            set_cas_hook(None)
        assert {step for step, _ in held} == {
            "write_head", "read_and_bump", "dcss", "splice", "freeze"}
        assert all(locked for _, locked in held)


    def test_a_list_target_is_always_a_splice(self):
        # a splice names its list's array, frozen owner or not, and no other
        # step names a list, so a hook tells a splice from an install by
        # its target alone; likewise a version is always a head write's
        tiny = IndexConfig(olb_threshold=4)
        index = LearnedIndex.build([(0, 0), (10**6, 0)], tiny)
        seen = []

        def record(target, ok):
            seen.append((sys._getframe(1).f_code.co_name, type(target).__name__, ok))

        set_cas_hook(record)
        try:
            for k in range(1, 40):
                index.insert(k, k)
            for k in (0, 5, 39):  # a root key, keys in bins and nodes
                index.insert(k, -k)
                index.delete(k)
            olb = bin_new(5, 5, index.clock.read())
            freeze(olb, True)
            assert insert_bin(olb, 6, 6, index.clock) is UNDER_MAKE_MODEL
            assert insert_bin(olb, 5, 4, index.clock) is UNDER_MAKE_MODEL
        finally:
            set_cas_hook(None)
        splices = {(kind, ok) for step, kind, ok in seen if step == "splice"}
        assert splices == {("list", True), ("list", False)}
        assert not any(kind == "list" for step, kind, _ in seen if step != "splice")
        heads = {(kind, ok) for step, kind, ok in seen if step == "write_head"}
        assert heads == {("VersionedValue", True), ("OneLevelBin", False)}
        assert not any(kind == "VersionedValue" for step, kind, _ in seen
                       if step != "write_head")


class TestLink:
    """The benchmark's view of a list: ``head`` links a throwaway view node
    per key to the next, ending at the one shared END."""

    def test_one_immutable_field(self):
        # END has no field, and a view node's fields are fixed once made
        assert END.__slots__ == ()
        with pytest.raises(AttributeError):
            END.next = END
        view = OneLevelBin([7, VersionedValue(1, 0)]).head
        with pytest.raises(AttributeError):
            view.item = 0
        with pytest.raises(AttributeError):
            view.next = view

    def test_end_links_nowhere(self):
        # the benchmark's accessors: a view node is its own target, END none
        assert END.target is None and END.load() is END
        head = VersionedValue(1, 0)
        olb = OneLevelBin([1, 5, head, VersionedValue(5, 0)])
        node = olb.head
        # a chain head answers load() and version with itself
        assert (node.item, node.version) == (1, head)
        assert head.version is head and head.load() is head
        assert node.target is node and node.load() is node
        assert node.next.item == 5 and node.next.next is END
        assert OneLevelBin([]).head is END


#: A clock no test bumps, and its reading: a guarded step that compares
#: this reading with this clock passes the compare.
CLOCK = GlobalClock(0)
T = CLOCK.read()


class Owner:
    """A freeze word, an array and a write count, as a bin has."""

    def __init__(self, items=None):
        self.frozen = None
        self.items = [] if items is None else items
        self.writes = 0


class TestSplice:
    def test_stores_iff_the_cell_holds_expected(self):
        old = ["a", "ref"]
        owner, new = Owner(old), ["a", "b", "ref", "ref"]
        equal = list(old)
        assert equal == old and equal is not old
        assert not splice(owner, equal, 0, new, CLOCK, T)  # equal is not identical
        # a lost splice writes nothing
        assert owner.items is old and old == ["a", "ref"]
        assert splice(owner, old, 0, new, CLOCK, T)
        assert owner.items is new
        assert not splice(owner, old, 0, ["c"], CLOCK, T)
        assert owner.items is new

    def test_fails_once_the_owner_is_frozen(self):
        events = []
        old = ["a", "ref"]
        owner = Owner(old)
        set_cas_hook(lambda target, ok: events.append((target, ok)))
        try:
            freeze(owner, True)
            freeze(owner, "later")  # terminal: the first job stays
            assert not splice(owner, old, 0, ["new"], CLOCK, T)
        finally:
            set_cas_hook(None)
        assert owner.frozen is True
        # a refused splice writes nothing either
        assert owner.items is old and old == ["a", "ref"]
        # the hook sees the array the splice found, on a frozen owner too
        assert [(id(t), ok) for t, ok in events] == [
            (id(owner), True), (id(owner), False), (id(old), False)]

    def test_hook_sees_the_cell_written_or_found(self):
        # the bin's array after the step: the one a success stored, and
        # the one a failure found, which a success stored
        events = []
        old, first, second = ["a", "ref"], ["a", "b", 1, 2], ["a", "c", 1, 2]
        owner = Owner(old)
        set_cas_hook(lambda target, ok: events.append((target, ok)))
        try:
            splice(owner, old, 0, first, CLOCK, T)
            splice(owner, old, 0, second, CLOCK, T)
        finally:
            set_cas_hook(None)
        assert [(id(t), ok) for t, ok in events] == [(id(first), True), (id(first), False)]

    def test_a_success_publishes_the_copy_and_counts(self):
        # the array counts the bin's keys: a splice adds one key and its
        # head, and counts no head write
        old, new = ["a", 1], ["a", "b", 1, 2]
        olb = Owner(old)
        assert splice(olb, old, 0, new, CLOCK, T)
        assert olb.items is new and old == ["a", 1]
        assert (len(olb.items) >> 1, olb.writes) == (2, 0)

    def test_fails_once_a_head_write_lands_after_the_copy(self):
        # the inserter read the write count before it copied: a head write
        # into the same array since then would be lost in the copy
        head, newer = VersionedValue(1, T), VersionedValue(2, T)
        old = ["a", head]
        owner = Owner(old)
        writes = owner.writes
        new = ["a", "b", head, "ref"]  # copied before the write
        assert write_head(owner, old, 1, head, newer, CLOCK, owner)
        assert not splice(owner, old, writes, new, CLOCK, T)
        assert owner.items is old and old == ["a", newer]
        assert splice(owner, old, owner.writes, ["a", "b", newer, "ref"], CLOCK, T)

    def test_fails_once_a_bump_moves_the_clock(self):
        # the new key's version carries the reading t: after a scan's bump
        # the splice writes nothing and the hook names the clock's cell
        clock = GlobalClock(3)
        t = clock.read()
        old = ["a", "ref"]
        owner = Owner(old)
        new = ["a", "b", "ref", VersionedValue(2, t)]
        events = []
        set_cas_hook(lambda target, ok: events.append((target, ok)))
        try:
            assert clock.read_and_bump() == t
            assert not splice(owner, old, 0, new, clock, t)
            assert owner.items is old and old == ["a", "ref"] and owner.writes == 0
            assert splice(owner, old, 0, new, clock, clock.read())
        finally:
            set_cas_hook(None)
        assert events == [(clock.now, True), (clock.now, False), (new, True)]


class TestWriteHead:
    def test_stores_iff_the_slot_holds_expected_and_the_owner_is_not_frozen(self):
        first, second, third = (VersionedValue(v, T) for v in (1, 2, 3))
        node = SimpleNamespace(frozen=None, versions=[first])
        events = []
        set_cas_hook(lambda target, ok: events.append((target, ok)))
        try:
            assert write_head(node, node.versions, 0, first, second, CLOCK)
            assert not write_head(node, node.versions, 0, first, third, CLOCK)  # stale
            freeze(node, "job")
            assert not write_head(node, node.versions, 0, second, third, CLOCK)
        finally:
            set_cas_hook(None)
        assert node.versions == [second]
        # the hook sees the head stored or found, or the frozen owner
        assert events == [(second, True), (second, False), (node, True), (node, False)]

    def test_a_list_store_needs_the_array_bisected_and_counts_itself(self):
        head, newer = VersionedValue(1, T), VersionedValue(2, T)
        old = ["a", head]
        olb = Owner(old)
        moved = ["a", "b", head, "ref"]
        olb.items = moved  # a splice replaced the array the writer bisected
        assert not write_head(olb, old, 1, head, newer, CLOCK, olb)
        assert old[1] is head and olb.writes == 0
        assert write_head(olb, moved, 2, head, newer, CLOCK, olb)
        assert moved[2] is newer and olb.writes == 1
        freeze(olb, True)
        assert not write_head(olb, moved, 2, newer, head, CLOCK, olb)
        assert moved[2] is newer and olb.writes == 1

    def test_fails_once_a_bump_moves_the_clock(self):
        # the clock must still read the new version's ts
        clock = GlobalClock(3)
        head = VersionedValue(1, 0)
        newer = VersionedValue(2, clock.read())
        node = SimpleNamespace(frozen=None, versions=[head])
        events = []
        set_cas_hook(lambda target, ok: events.append((target, ok)))
        try:
            clock.read_and_bump()
            assert not write_head(node, node.versions, 0, head, newer, clock)
            assert node.versions == [head]
            newest = VersionedValue(2, clock.read())
            assert write_head(node, node.versions, 0, head, newest, clock)
        finally:
            set_cas_hook(None)
        assert node.versions == [newest] and newest.ts == 4
        assert events == [(clock.now, True), (clock.now, False), (newest, True)]


class TestDcss:
    def test_stores_the_child_iff_the_slot_holds_it(self):
        owner = SimpleNamespace(frozen=None, children=[EMPTY, EMPTY])
        first, second = SimpleNamespace(), SimpleNamespace()
        events = []
        set_cas_hook(lambda target, ok: events.append((target, ok)))
        try:
            assert dcss(owner, 1, EMPTY, first)
            assert not dcss(owner, 1, EMPTY, second)  # the slot left EMPTY
            assert dcss(owner, 1, first, second)
            freeze(owner, "job")
            assert not dcss(owner, 0, EMPTY, first)
        finally:
            set_cas_hook(None)
        assert owner.children == [EMPTY, second]
        assert EMPTY.value is None  # nothing writes the shared empty child
        # the hook sees the child stored or found, or the frozen owner
        assert events == [(first, True), (first, False), (second, True),
                          (owner, True), (owner, False)]

    def test_a_fresh_bin_needs_the_clock_unmoved(self):
        # a first insert passes the clock and its reading; a rebuild passes
        # neither, so a bump fails only the first
        clock = GlobalClock(0)
        t = clock.read()
        owner = SimpleNamespace(frozen=None, children=[EMPTY, EMPTY])
        fresh, rebuilt = SimpleNamespace(), SimpleNamespace()
        events = []
        set_cas_hook(lambda target, ok: events.append((target, ok)))
        try:
            clock.read_and_bump()
            assert not dcss(owner, 0, EMPTY, fresh, clock, t)
            assert owner.children == [EMPTY, EMPTY]
            assert dcss(owner, 0, EMPTY, fresh, clock, clock.read())
            assert dcss(owner, 0, fresh, rebuilt)
        finally:
            set_cas_hook(None)
        assert owner.children == [rebuilt, EMPTY]
        assert events == [(clock.now, True), (clock.now, False), (fresh, True),
                          (rebuilt, True)]


class TestVersionedReads:
    def test_a_published_head_already_carries_its_timestamp(self):
        # every write, a model key's, a new bin key's and a first insert's,
        # publishes a version stamped with the clock's reading at its step;
        # a search only reads, so it changes neither the head nor the clock
        index = LearnedIndex.build([(10, 1), (20, 2)])
        for key, value in ((10, 11), (15, 15), (12, 12), (20, None)):
            index.clock.read_and_bump()
            now = index.clock.read()
            if value is None:
                assert index.delete(key) is True
            else:
                assert index.insert(key, value) is True
            node, i, child = index.seek(key)
            head = node.versions[i] if child is FOUND else search_bin(child, key)
            assert head.ts is now and head.val == value
            assert index.search(key) == value
            assert index.clock.read() is now and head.ts is now

    def test_latest_returns_absent_payload(self):
        index = LearnedIndex.build([(5, 50)])
        assert index.delete(5) is True
        assert index.root.versions[0].val is None
        assert index.search(5) is None

    def test_latest_reads_only_the_head(self):
        index = LearnedIndex.build([(5, 50)])
        index.clock.read_and_bump()
        assert index.insert(5, 51) is True
        head = index.root.versions[0]
        assert (head.val, head.ts, head.vnext.val, head.vnext.ts) == (51, 1, 50, 0)
        assert index.search(5) == 51

    def test_at_skips_newer_versions(self):
        old = VersionedValue(1, 3)
        head = VersionedValue(9, 5, old)
        assert read_value_at(head, 4) == 1

    def test_at_sees_absent_as_deleted(self):
        head = VersionedValue(None, 2)
        assert read_value_at(head, 2) is None

    def test_at_returns_tombstone_before_first_version(self):
        # no version yet reads as None, as a delete does
        head = VersionedValue(9, 5)
        assert read_value_at(head, 4) is None

    def test_at_reads_without_a_clock_and_writes_nothing(self):
        # the third argument is the benchmark's, and the read ignores it
        clock = GlobalClock(7)
        old = VersionedValue(1, 3)
        head = VersionedValue(3, 6, old)
        for args in ((), (clock,), (None,)):
            assert read_value_at(head, 100, *args) == 3
            assert read_value_at(head, 5, *args) == 1
            assert read_value_at(head, 2, *args) is None
        assert chain(head) == [(3, 6), (1, 3)] and clock.read() == 7


class TestStamp:
    """A writer stamps its version once, at construction, with the clock's
    reading, which the step that publishes it compares."""

    def test_a_write_stamps_its_version_once_with_the_clocks_reading(self):
        clock = GlobalClock(5)
        built = VersionedValue(1, 0)
        node = one_head(built)
        assert write_version(node, node.versions, 0, 2, clock) is True
        head = node.versions[0]
        assert head.ts is clock.read() and head.vnext is built
        assert built.ts == 0  # the displaced head keeps its own stamp
        clock.read_and_bump()
        assert head.ts == 5  # no later step touches it
        assert not hasattr(head, "stamp")

    def test_reads_the_clock_outside_the_lock(self):
        # the writer's reading is taken outside the lock, and the step's
        # compare of it inside
        held = []

        class Cell:
            @property
            def value(self):
                held.append(core._LOCK.locked())
                return 3

        clock = SimpleNamespace(now=Cell())
        node = one_head(VersionedValue(1, 0))
        assert write_version(node, node.versions, 0, 2, clock) is True
        assert held == [False, True] and node.versions[0].ts == 3


def one_head(ver):
    """A model node's worth of owner: a freeze word and one chain head."""
    return SimpleNamespace(frozen=None, versions=[ver])


def write(owner, val, clock):
    """``write_version`` retried as the index retries it, on an owner that
    never freezes."""
    while True:
        res = write_version(owner, owner.versions, 0, val, clock)
        if res is not None:
            return res


class TestWriteValue:
    def test_new_value_prepends_version(self):
        clock = GlobalClock(0)
        node = one_head(VersionedValue(1, 0))
        assert write(node, 2, clock)
        vals = chain(node.versions[0])
        assert [v for v, _ in vals] == [2, 1]
        assert all(ts >= 0 for _, ts in vals)

    def test_equal_value_is_a_no_op(self):
        clock = GlobalClock(0)
        first = VersionedValue(2, 0)
        node = one_head(first)
        assert write(node, 2, clock) is False
        assert node.versions[0] is first
        freeze(node, "job")  # on a frozen owner too: nothing to write
        assert write_version(node, node.versions, 0, 2, clock) is False
        assert write_version(node, node.versions, 0, 3, clock) is None
        assert node.versions[0] is first

    def test_timestamps_never_increase_toward_the_tail(self):
        clock = GlobalClock(0)
        node = one_head(VersionedValue(0, 0))
        for i in range(1, 30):
            write(node, i, clock)
            if i % 3 == 0:
                clock.read_and_bump()
        stamps = [ts for _, ts in chain(node.versions[0])]
        assert stamps == sorted(stamps, reverse=True)

    def test_racing_writers_keep_both_versions(self):
        clock = GlobalClock(0)
        node = one_head(VersionedValue(1, 0))
        done = threading.Barrier(2)

        def put(v):
            done.wait()
            assert write(node, v, clock)

        threads = [threading.Thread(target=put, args=(v,)) for v in (7, 8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        vals = [v for v, _ in chain(node.versions[0])]
        assert vals[0] in (7, 8)
        assert sorted(vals) == [1, 7, 8]
        stamps = [ts for _, ts in chain(node.versions[0])]
        assert stamps == sorted(stamps, reverse=True)

    def test_both_sequential_orders(self):
        for first, second in ((7, 8), (8, 7)):
            clock = GlobalClock(0)
            node = one_head(VersionedValue(1, 0))
            assert write(node, first, clock)
            assert write(node, second, clock)
            assert [v for v, _ in chain(node.versions[0])] == [second, first, 1]

    @given(st.lists(st.one_of(st.integers(0, 3), st.none()), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_changed_oracle(self, writes):
        clock = GlobalClock(0)
        node = one_head(VersionedValue(100, 0))
        stored = 100
        depth = 1
        for w in writes:
            changed = stored != w
            assert write(node, w, clock) is changed
            if changed:
                stored = w
                depth += 1
        assert len(chain(node.versions[0])) == depth
        assert node.versions[0].val == stored


class TestGlobalClock:
    def test_sequential_bumps_count_up(self):
        clock = GlobalClock(0)
        assert [clock.read_and_bump() for _ in range(4)] == [0, 1, 2, 3]
        assert clock.read() == 4

    def test_read_does_not_advance(self):
        clock = GlobalClock(5)
        assert clock.read() == 5
        assert clock.read() == 5

    def test_an_unraced_bump_returns_its_read_and_adds_one(self):
        clock = GlobalClock(41)
        events = []
        set_cas_hook(lambda cell, ok: events.append((cell, ok)))
        try:
            assert clock.read_and_bump() == 41
        finally:
            set_cas_hook(None)
        assert clock.read() == 42
        assert events == [(clock.now, True)]

    def test_a_raced_bump_fails_once_and_keeps_the_racers_time(self):
        class RacedRef(AtomicRef):
            """A clock cell that another thread bumps right after its first
            read of ``value``, which is how the clock loads it."""

            __slots__ = ("raced",)

            def __init__(self, value):
                super().__init__(value)
                self.raced = False

            @property
            def value(self):
                t = AtomicRef.value.__get__(self)
                if not self.raced:
                    self.raced = True
                    AtomicRef.value.__set__(self, t + 1)
                return t

            @value.setter
            def value(self, new):
                AtomicRef.value.__set__(self, new)

        clock = GlobalClock()
        clock.now = RacedRef(7)
        events = []
        set_cas_hook(lambda cell, ok: events.append((cell, ok)))
        try:
            assert clock.read_and_bump() == 7
        finally:
            set_cas_hook(None)
        assert clock.now.raced
        assert clock.now.value == 8  # the racer's bump, no retry on top
        assert events == [(clock.now, False)]

    def test_concurrent_bumps_stay_bounded_and_monotone(self):
        clock = GlobalClock(0)
        per = 2_000
        seen = [[] for _ in range(4)]

        def bump(me):
            mine = seen[me]
            for _ in range(per):
                mine.append(clock.read_and_bump())

        threads = [threading.Thread(target=bump, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = clock.read()
        assert final <= 4 * per
        assert final >= max(max(s) for s in seen)
        for s in seen:
            assert s == sorted(s)  # per-thread reads never go backward
