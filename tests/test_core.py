"""Atomic cells, version chains, and the logical clock."""

import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lfindex import core
from lfindex.bins import KNode
from lfindex.core import (
    KEY_MAX,
    UNSET_TS,
    AtomicRef,
    EMPTY,
    END,
    GlobalClock,
    VersionedValue,
    dcss,
    freeze,
    read_value_at,
    read_value_latest,
    set_cas_hook,
    splice,
    write_value,
)
from lfindex.index import IndexConfig, LearnedIndex


def chain(head_ref):
    """[(val, ts)] from the newest version to the oldest."""
    out = []
    ver = head_ref.load()
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
        tiny = IndexConfig(olb_threshold=4, tlb_fanout=2, tlb_threshold=8)
        index = LearnedIndex.build([(0, 0), (10**6, 0)], tiny)
        held = []

        def record(_target, _ok):
            step = sys._getframe(1).f_code.co_name
            if step == "compare_and_swap":  # named by its caller
                step = sys._getframe(2).f_code.co_name
            held.append((step, core._LOCK.locked()))

        set_cas_hook(record)
        try:
            for k in range(1, 40):  # installs, splices, splits and retrains
                index.insert(k, k)
            index.insert(0, 1)  # a root key's chain
            index.insert(5, 50)
            index.delete(7)
            assert index.range(4, 4) == [(4, 4), (5, 50), (6, 6), (8, 8)]
        finally:
            set_cas_hook(None)
        assert {step for step, _ in held} == {
            "write_value", "read_and_bump", "dcss", "splice", "freeze"}
        assert all(locked for _, locked in held)


class TestLink:
    """A node is its own link: its ``next`` holds the next node, or the one
    shared tail END."""

    def test_one_immutable_field(self):
        # END's one field is its key, above every key, and nothing sets it
        assert END.item == KEY_MAX + 1
        assert END.__slots__ == ()
        with pytest.raises(AttributeError):
            END.item = 0
        with pytest.raises(AttributeError):
            END.next = END

    def test_end_links_nowhere(self):
        # the benchmark's accessors: a node is its own target, END none
        assert END.target is None and END.load() is END
        node = KNode(1, AtomicRef(VersionedValue(1, 0)))
        assert node.next is END
        assert node.target is node and node.load() is node


class Owner:
    """A list with a freeze word, its first node, a walk hint, fingers and a
    count, as a bin or a child list is; ``fingers`` None keeps none, as a
    one-level bin."""

    def __init__(self, size=0, fingers=None, first=END):
        self.frozen = None
        self.next = first
        self.hint = None
        self.fingers = fingers
        self.size = size


def fresh_node(item):
    """A new node not linked yet, as an insert makes; ``next`` None shows
    that nothing has written it."""
    return SimpleNamespace(item=item, next=None)


def node_before(succ):
    """A node of a list whose ``next`` holds ``succ``."""
    return SimpleNamespace(item="pred", next=succ)


class TestSplice:
    def test_stores_iff_the_cell_holds_expected(self):
        owner, old, new = Owner(), fresh_node("a"), fresh_node("b")
        pred = node_before(old)
        equal = fresh_node("a")
        assert equal == old and equal is not old
        assert not splice(owner, owner, pred, equal, new)  # equal is not identical
        assert pred.next is old
        # a lost splice writes nothing: no link, no hint, no count
        assert new.next is None
        assert (owner.hint, owner.fingers, owner.size) == (None, None, 0)
        assert splice(owner, owner, pred, old, new)
        assert pred.next is new
        assert not splice(owner, owner, pred, old, fresh_node("c"))
        assert pred.next is new

    def test_fails_once_the_owner_is_frozen(self):
        events = []
        tlb, child, old = Owner(5), Owner(2), fresh_node("a")
        pred, new = node_before(old), fresh_node("b")
        set_cas_hook(lambda target, ok: events.append((target, ok)))
        try:
            freeze(tlb, True)
            freeze(tlb, "later")  # terminal: the first job stays
            assert not splice(tlb, child, pred, old, new)
        finally:
            set_cas_hook(None)
        assert tlb.frozen is True
        # a refused splice writes nothing either
        assert pred.next is old and new.next is None
        assert (child.hint, tlb.hint) == (None, None)
        assert (child.size, tlb.size) == (2, 5)
        # the hook sees the frozen owner, not the node it would have written
        assert events == [(tlb, True), (tlb, False), (tlb, False)]

    def test_hook_sees_the_cell_written_or_found(self):
        # the predecessor whose ``next`` a splice compares: a node, or the
        # list itself in front of its first node
        events = []
        owner, old = Owner(), fresh_node("a")
        pred = node_before(old)
        set_cas_hook(lambda target, ok: events.append((target, ok)))
        try:
            splice(owner, owner, pred, old, fresh_node("b"))
            splice(owner, owner, pred, old, fresh_node("c"))
            splice(owner, owner, owner, END, fresh_node("d"))
        finally:
            set_cas_hook(None)
        assert events == [(pred, True), (pred, False), (owner, True)]

    def test_a_success_links_hints_and_counts(self):
        # a one-level bin is its own list: one count
        olb, old, new = Owner(3), fresh_node("a"), fresh_node("b")
        pred = node_before(old)
        assert splice(olb, olb, pred, old, new)
        assert new.next is old and pred.next is new
        assert olb.hint is new
        assert olb.size == 4
        # a child list counts in its own size and in its bin's total; the
        # list is the predecessor of its first node
        tlb, child = Owner(5), Owner(2, first=old)
        new = fresh_node("c")
        assert splice(tlb, child, child, old, new)
        assert new.next is old and child.next is new
        assert child.hint is new and tlb.hint is None
        assert (child.size, tlb.size) == (3, 6)

    def test_a_new_tail_and_only_it_becomes_a_finger(self):
        tlb, child = Owner(1), Owner(1, fingers=["a"])
        tail, mid = fresh_node("c"), fresh_node("b")
        pred = node_before(END)
        assert splice(tlb, child, pred, END, tail)  # links to END: the tail
        assert child.fingers == ["a", tail]
        assert splice(tlb, child, pred, tail, mid)  # links to the tail: no finger
        assert child.fingers == ["a", tail]
        assert not splice(tlb, child, node_before(END), tail, fresh_node("d"))
        freeze(tlb, True)
        assert not splice(tlb, child, node_before(END), END, fresh_node("d"))
        assert child.fingers == ["a", tail]  # a failure writes no finger


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


class TestVersionedReads:
    def test_latest_assigns_head_timestamp(self):
        clock = GlobalClock(0)
        head = AtomicRef(VersionedValue(42))
        assert head.load().ts == UNSET_TS
        assert read_value_latest(head, clock) == 42
        assert head.load().ts != UNSET_TS

    def test_latest_returns_absent_payload(self):
        clock = GlobalClock(0)
        head = AtomicRef(VersionedValue(None, 2))
        assert read_value_latest(head, clock) is None

    def test_latest_reads_only_the_head(self):
        clock = GlobalClock(9)
        old = VersionedValue(1, 3)
        head = AtomicRef(VersionedValue(9, 5, old))
        assert read_value_latest(head, clock) == 9

    def test_at_skips_newer_versions(self):
        clock = GlobalClock(9)
        old = VersionedValue(1, 3)
        head = AtomicRef(VersionedValue(9, 5, old))
        assert read_value_at(head, 4, clock) == 1

    def test_at_sees_absent_as_deleted(self):
        clock = GlobalClock(9)
        head = AtomicRef(VersionedValue(None, 2))
        assert read_value_at(head, 2, clock) is None

    def test_at_returns_tombstone_before_first_version(self):
        # no version yet reads as None, as a delete does
        clock = GlobalClock(9)
        head = AtomicRef(VersionedValue(9, 5))
        assert read_value_at(head, 4, clock) is None

    def test_at_stamps_an_unstamped_head(self):
        clock = GlobalClock(7)
        head = AtomicRef(VersionedValue(3))
        assert read_value_at(head, 100, clock) == 3
        assert head.load().ts == 7


class TestStamp:
    def test_sets_an_unset_ts_once_from_the_clock(self):
        clock = GlobalClock(5)
        ver = VersionedValue(1)
        ver.stamp(clock)
        assert ver.ts == 5
        clock.read_and_bump()
        ver.stamp(clock)
        assert ver.ts == 5
        built = VersionedValue(2, 0)
        built.stamp(clock)
        assert built.ts == 0

    def test_reads_the_clock_outside_the_lock(self):
        ver = VersionedValue(1)
        held = []

        class Clock:
            def read(self):
                held.append(core._LOCK.locked())
                return 3

        ver.stamp(Clock())
        assert held == [False] and ver.ts == 3
        ver.stamp(Clock())  # a set ts returns before the clock is read
        assert held == [False]


class TestWriteValue:
    def test_new_value_prepends_version(self):
        clock = GlobalClock(0)
        head = AtomicRef(VersionedValue(1, 0))
        assert write_value(head, 2, clock)
        vals = chain(head)
        assert [v for v, _ in vals] == [2, 1]
        assert all(ts != UNSET_TS for _, ts in vals)

    def test_equal_value_is_a_no_op(self):
        clock = GlobalClock(0)
        first = VersionedValue(2, 0)
        head = AtomicRef(first)
        assert not write_value(head, 2, clock)
        assert head.load() is first

    def test_timestamps_never_increase_toward_the_tail(self):
        clock = GlobalClock(0)
        head = AtomicRef(VersionedValue(0, 0))
        for i in range(1, 30):
            write_value(head, i, clock)
            if i % 3 == 0:
                clock.read_and_bump()
        stamps = [ts for _, ts in chain(head)]
        assert stamps == sorted(stamps, reverse=True)

    def test_racing_writers_keep_both_versions(self):
        clock = GlobalClock(0)
        head = AtomicRef(VersionedValue(1, 0))
        done = threading.Barrier(2)

        def put(v):
            done.wait()
            assert write_value(head, v, clock)

        threads = [threading.Thread(target=put, args=(v,)) for v in (7, 8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        vals = [v for v, _ in chain(head)]
        assert vals[0] in (7, 8)
        assert sorted(vals) == [1, 7, 8]
        stamps = [ts for _, ts in chain(head)]
        assert stamps == sorted(stamps, reverse=True)

    def test_both_sequential_orders(self):
        for first, second in ((7, 8), (8, 7)):
            clock = GlobalClock(0)
            head = AtomicRef(VersionedValue(1, 0))
            assert write_value(head, first, clock)
            assert write_value(head, second, clock)
            assert [v for v, _ in chain(head)] == [second, first, 1]

    @given(st.lists(st.one_of(st.integers(0, 3), st.none()), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_changed_oracle(self, writes):
        clock = GlobalClock(0)
        head = AtomicRef(VersionedValue(100, 0))
        stored = 100
        depth = 1
        for w in writes:
            changed = stored != w
            assert write_value(head, w, clock) is changed
            if changed:
                stored = w
                depth += 1
        assert len(chain(head)) == depth
        assert head.load().val == stored


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
