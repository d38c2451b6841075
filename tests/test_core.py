"""Atomic cells, version chains, and the logical clock."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from lfindex.core import (
    TOMBSTONE,
    UNSET_TS,
    AtomicInt,
    AtomicRef,
    GlobalClock,
    MarkedLink,
    VersionedValue,
    init_ts,
    read_value_at,
    read_value_latest,
    set_cas_hook,
    write_value,
)


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


class TestAtomicInt:
    def test_cas_and_load(self):
        n = AtomicInt(5)
        assert n.compare_and_swap(5, 6)
        assert not n.compare_and_swap(5, 7)
        assert n.load() == 6

    def test_fetch_add_returns_previous(self):
        n = AtomicInt(10)
        assert n.fetch_add(3) == 10
        assert n.load() == 13

    def test_concurrent_fetch_add_loses_nothing(self):
        n = AtomicInt(0)
        per = 10_000

        def bump():
            for _ in range(per):
                n.fetch_add(1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert n.load() == 4 * per


class TestMarkedLink:
    def test_fields_and_immutability(self):
        link = MarkedLink("node", False)
        assert link.target == "node"
        assert not link.frozen
        with pytest.raises(AttributeError):
            link.frozen = True

    def test_freeze_is_a_new_link(self):
        link = MarkedLink("node", False)
        frozen = MarkedLink(link.target, True)
        assert frozen.target is link.target
        assert frozen.frozen


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
        clock = GlobalClock(9)
        head = AtomicRef(VersionedValue(9, 5))
        assert read_value_at(head, 4, clock) is TOMBSTONE

    def test_at_stamps_an_unstamped_head(self):
        clock = GlobalClock(7)
        head = AtomicRef(VersionedValue(3))
        assert read_value_at(head, 100, clock) == 3
        assert head.load().ts == 7


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


class TestTombstone:
    def test_distinct_from_every_payload_and_absent(self):
        assert TOMBSTONE is not None
        assert TOMBSTONE != 0
        assert TOMBSTONE != ""
        assert not isinstance(TOMBSTONE, int)

    def test_repr_is_stable(self):
        assert "tombstone" in repr(TOMBSTONE).lower()
