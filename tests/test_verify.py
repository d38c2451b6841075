"""Verification machinery: oracle, recorder, history checker, audit."""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfindex.bins import freeze_bin
from lfindex.core import EMPTY, KEY_MAX, AtomicRef, VersionedValue
from lfindex.index import IndexConfig, LearnedIndex, ModelNode
from lfindex.models import Model, fit_linear, root_table, segment_root
from lfindex.verify import (
    CHECK_MAX_KEYS,
    CHECK_MAX_OPS,
    CHECK_MAX_THREADS,
    HistoryEvent,
    HistoryRecorder,
    SequentialOracle,
    audit_structure,
    check_linearizable,
    format_event,
    parse_event,
    read_history,
    write_history,
)

SMALL = IndexConfig(olb_threshold=4, tlb_fanout=2, tlb_threshold=6)

#: Root keys above a scenario's keys: more than it puts below the root, so
#: no retrain takes the root as its top and its nested node stays put.
ROOM = [(k, 0) for k in range(2_000, 2_064)]


def ev(thread, op, args, result, inv, res):
    return HistoryEvent(thread, op, tuple(args), result, inv, res)


class TestSequentialOracle:
    def test_insert_reports_mapping_changes_only(self):
        o = SequentialOracle()
        assert o.insert(5, 1) is True
        assert o.insert(5, 1) is False
        assert o.insert(5, 2) is True
        assert o.delete(5) is True
        assert o.insert(5, 2) is True  # revival counts as a change

    def test_delete_and_search(self):
        o = SequentialOracle.from_pairs([(1, 10), (2, 20)])
        assert o.search(1) == 10
        assert o.delete(1) is True
        assert o.search(1) is None
        assert o.delete(1) is False
        assert o.delete(9) is False

    def test_range_slices_live_pairs(self):
        o = SequentialOracle.from_pairs([(k, k) for k in range(10)])
        o.delete(4)
        assert o.range(2, 4) == [(2, 2), (3, 3), (5, 5), (6, 6)]
        assert o.range(2, 4, max_results=2) == [(2, 2), (3, 3)]
        assert o.range(KEY_MAX - 1, KEY_MAX) == []

    def test_range_cap_matches_the_index(self):
        pairs = [(k, k) for k in range(10)]
        o = SequentialOracle.from_pairs(pairs)
        index = LearnedIndex.build(pairs)
        for m in (o, index):
            m.delete(4)
        for cap in range(12):
            assert o.range(0, 9, cap) == index.range(0, 9, cap), cap
        assert o.range(0, 9, 0) == []
        for m in (o, index):
            with pytest.raises(ValueError):
                m.range(0, 9, -1)
            with pytest.raises(TypeError):
                m.range(0, 9, 2.5)

    def test_refuses_what_the_index_refuses(self):
        # one contract (core) for the index, the oracle, the models and the
        # log parser: each refuses a bad key, width or cap with the same
        # exception, and each takes the top of the domain
        pairs = [(k, k) for k in range(10)]
        o = SequentialOracle.from_pairs(pairs)
        index = LearnedIndex.build(pairs)
        bad_keys = [(-1, ValueError), (KEY_MAX + 1, ValueError),
                    (np.uint64(2**63), ValueError), (np.int64(-1), ValueError),
                    (1.0, TypeError)]
        calls = [
            ("range", (5, -1), ValueError),
            ("range", (-3, 5), ValueError),
            ("range", (4.0, 1.0), TypeError),
            ("range", (KEY_MAX + 1, 0), ValueError),
            ("search", (3.0,), TypeError),
            ("search", (2**63,), ValueError),
            ("search", (-1,), ValueError),
            ("delete", (2.0,), TypeError),
            ("delete", (-1,), ValueError),
            ("insert", (-1, 1), ValueError),
            ("insert", (2.0, 1), TypeError),
            ("insert", (3, None), ValueError),
            ("range", (0, 9, -1), ValueError),
        ]
        for key, exc in bad_keys:
            calls += [("search", (key,), exc), ("delete", (key,), exc),
                      ("insert", (key, 1), exc), ("range", (key, 0), exc)]
        for op, args, exc in calls:
            for m in (o, index):
                with pytest.raises(exc):
                    getattr(m, op)(*args)
        for bad in ([(5, 5), (1, 1)], [(1, 1), (1, 2)], [(-1, 1)], [(2**63, 1)],
                    [(1, None)]):
            with pytest.raises(ValueError):
                LearnedIndex.build(bad)
            with pytest.raises(ValueError):
                SequentialOracle.from_pairs(bad)
        with pytest.raises(TypeError):
            LearnedIndex.build([(1.0, 1)])
        with pytest.raises(TypeError):
            SequentialOracle.from_pairs([(1.0, 1)])
        for key, exc in bad_keys:
            keys = sorted([5, key])
            for refuse in (lambda: fit_linear(keys), lambda: segment_root(keys, 32.0),
                           lambda: LearnedIndex.build([(k, 1) for k in keys]),
                           lambda: SequentialOracle.from_pairs([(k, 1) for k in keys])):
                with pytest.raises(exc):
                    refuse()
        # a log line is text, so a float token is a malformed line, as is
        # every other bad key or width: ValueError
        lines = ["0 1 T0 range 5 -1 = empty"]
        for key, _ in bad_keys:
            lines += [f"0 1 T0 search {key} = none", f"0 1 T0 delete {key} = false",
                      f"0 1 T0 insert {key} 1 = true", f"0 1 T0 range {key} 0 = empty"]
        for line in lines:
            with pytest.raises(ValueError):
                parse_event(line)
        for top in (KEY_MAX, np.uint64(KEY_MAX)):
            assert fit_linear([0, top]).eps <= 1.0
            assert len(segment_root([0, top], 32.0)) == 1
            for m in (LearnedIndex.build([(5, 5), (top, 1)]),
                      SequentialOracle.from_pairs([(5, 5), (top, 1)])):
                assert m.search(top) == 1
                assert m.range(5, top) == [(5, 5), (KEY_MAX, 1)]
                assert m.range(top, top, 1) == [(KEY_MAX, 1)]
                assert m.delete(top) is True
                assert m.insert(top, 2) is True
            line = f"0 1 T0 range {top} {top} = {KEY_MAX}:2"
            assert parse_event(line).args == (KEY_MAX, KEY_MAX)
        # nothing refused changed either map
        assert o.range(0, KEY_MAX) == index.range(0, KEY_MAX) == pairs
        assert o.live_map() == audit_structure(index).live_map()

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20),
                              st.integers(0, 4)), max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_dict_model(self, ops):
        o = SequentialOracle()
        live = {}
        for code, k, v in ops:
            if code == 0:
                assert o.search(k) == live.get(k)
            elif code == 1:
                changed = live.get(k) != v
                assert o.insert(k, v) is changed
                live[k] = v
            elif code == 2:
                assert o.delete(k) is (k in live)
                live.pop(k, None)
            else:
                want = [(kk, live[kk]) for kk in sorted(live)
                        if k <= kk <= k + v * 5]
                assert o.range(k, v * 5) == want
        assert o.live_map() == live


class TestHistoryRecorder:
    def test_ticks_are_unique_and_bracket_each_op(self):
        index = LearnedIndex.build([])
        rec = HistoryRecorder(index)
        barrier = threading.Barrier(2)

        def worker(name, keys):
            barrier.wait()
            for k in keys:
                rec.run(name, "insert", k, 1)
                rec.run(name, "search", k)

        t0 = threading.Thread(target=worker, args=("T0", [0, 1]))
        t1 = threading.Thread(target=worker, args=("T1", [2, 3]))
        t0.start(), t1.start(), t0.join(), t1.join()
        history = rec.history()
        assert len(history) == 8
        ticks = [t for e in history for t in (e.inv, e.res)]
        assert len(set(ticks)) == 16
        assert all(e.inv < e.res for e in history)
        assert [e.inv for e in history] == sorted(e.inv for e in history)
        assert check_linearizable(history).ok

    def test_results_pass_through(self):
        index = LearnedIndex.build([(3, 30)])
        rec = HistoryRecorder(index)
        assert rec.run("T0", "search", 3) == 30
        assert rec.run("T0", "insert", 3, 30) is False
        assert rec.run("T0", "delete", 3) is True
        assert rec.run("T0", "range", 0, 10) == []
        assert [e.result for e in rec.history()] == [30, False, True, []]


class TestCheckLinearizable:
    def test_empty_history(self):
        r = check_linearizable([])
        assert r.ok and r.witness == [] and r.failing_prefix is None

    def test_sequential_history(self):
        h = [ev("T0", "insert", (5, 1), True, 0, 1),
             ev("T0", "search", (5,), 1, 2, 3),
             ev("T0", "delete", (5,), True, 4, 5),
             ev("T0", "search", (5,), None, 6, 7)]
        r = check_linearizable(h)
        assert r.ok and len(r.witness) == 4

    def test_overlap_allows_reordering(self):
        # the search was invoked first but saw the insert that completed
        # inside its window; only the reordered witness explains it
        h = [ev("T0", "search", (5,), 1, 0, 3),
             ev("T1", "insert", (5, 1), True, 1, 2)]
        r = check_linearizable(h)
        assert r.ok
        assert [e.op for e in r.witness] == ["insert", "search"]

    def test_real_time_order_is_binding(self):
        # the insert finished strictly before the search began, so a None
        # result has no witness no matter the ordering
        h = [ev("T0", "insert", (5, 1), True, 0, 1),
             ev("T1", "search", (5,), None, 2, 3)]
        r = check_linearizable(h)
        assert not r.ok
        assert len(r.failing_prefix) == 2

    def test_phantom_read_rejected_with_minimal_prefix(self):
        h = [ev("T0", "insert", (5, 1), True, 0, 1),
             ev("T0", "search", (5,), 2, 2, 3),
             ev("T0", "delete", (5,), True, 4, 5)]
        r = check_linearizable(h)
        assert not r.ok
        assert [e.op for e in r.failing_prefix] == ["insert", "search"]

    def test_bad_first_op(self):
        r = check_linearizable([ev("T0", "delete", (5,), True, 0, 1)])
        assert not r.ok and len(r.failing_prefix) == 1

    def test_concurrent_identical_inserts_cannot_both_change(self):
        base = [ev("T0", "insert", (5, 1), True, 0, 3),
                ev("T1", "insert", (5, 1), True, 1, 2)]
        assert not check_linearizable(base).ok
        fixed = [base[0], dataclasses.replace(base[1], result=False)]
        assert check_linearizable(fixed).ok

    def test_range_results_are_checked_exactly(self):
        h = [ev("T0", "insert", (3, 7), True, 0, 1),
             ev("T0", "insert", (5, 2), True, 2, 3),
             ev("T0", "range", (3, 2), [(3, 7), (5, 2)], 4, 5)]
        assert check_linearizable(h).ok
        short = h[:2] + [dataclasses.replace(h[2], result=[(3, 7)])]
        assert not check_linearizable(short).ok

    def test_corrupted_recorded_history_is_rejected(self):
        index = LearnedIndex.build([])
        rec = HistoryRecorder(index)
        rec.run("T0", "insert", 1, 1)
        rec.run("T1", "search", 1)
        rec.run("T1", "insert", 2, 5)
        rec.run("T0", "range", 0, 4)
        history = rec.history()
        assert check_linearizable(history).ok
        bad = [dataclasses.replace(e, result=424242) if e.op == "search" else e
               for e in history]
        assert not check_linearizable(bad).ok

    def test_a_recorded_call_it_cannot_check_is_refused_by_name(self):
        # a capped range records three arguments; the checker names the
        # event instead of failing while it replays it
        rec = HistoryRecorder(LearnedIndex.build([(1, 1), (2, 2)]))
        rec.run("T0", "range", 0, 5, 1)
        with pytest.raises(ValueError, match=r"bad op/arity in history event: .*'range'"):
            check_linearizable(rec.history())
        unknown = [ev("T0", "frobnicate", (5,), None, 0, 1)]
        with pytest.raises(ValueError, match=r"bad op/arity in history event: .*'frobnicate'"):
            check_linearizable(unknown)

    def test_bounds_are_enforced(self):
        long = [ev("T0", "search", (0,), None, 2 * i, 2 * i + 1)
                for i in range(CHECK_MAX_OPS + 1)]
        with pytest.raises(ValueError):
            check_linearizable(long)
        wide = [ev(f"T{i}", "search", (0,), None, 2 * i, 2 * i + 1)
                for i in range(CHECK_MAX_THREADS + 1)]
        with pytest.raises(ValueError):
            check_linearizable(wide)
        keyed = [ev("T0", "search", (i,), None, 2 * i, 2 * i + 1)
                 for i in range(CHECK_MAX_KEYS + 1)]
        with pytest.raises(ValueError):
            check_linearizable(keyed)


history_events = st.builds(
    lambda op, thread, key, extra, val, pairs, inv, res: HistoryEvent(
        thread, op,
        (key, extra) if op in ("insert", "range") else (key,),
        {"insert": extra % 2 == 0, "delete": extra % 2 == 0,
         "search": val, "range": pairs}[op],
        inv, res),
    st.sampled_from(["insert", "delete", "search", "range"]),
    st.text(alphabet="ABT012", min_size=1, max_size=4),
    st.integers(0, KEY_MAX),
    st.integers(0, 2**62),
    st.one_of(st.none(), st.integers(0, 2**62)),
    st.lists(st.tuples(st.integers(0, KEY_MAX), st.integers(0, 2**62)),
             max_size=4),
    st.integers(0, 10**9),
    st.integers(0, 10**9),
)


class TestHistorySerialization:
    def test_known_forms(self):
        cases = [
            (ev("T0", "insert", (6, 1), True, 0, 17), "0 17 T0 insert 6 1 = true"),
            (ev("T1", "delete", (6,), False, 2, 3), "2 3 T1 delete 6 = false"),
            (ev("T2", "search", (6,), None, 4, 5), "4 5 T2 search 6 = none"),
            (ev("T2", "search", (6,), 9, 4, 5), "4 5 T2 search 6 = 9"),
            (ev("T0", "range", (1, 4), [(1, 2), (3, 4)], 6, 7),
             "6 7 T0 range 1 4 = 1:2,3:4"),
            (ev("T0", "range", (1, 4), [], 6, 7), "6 7 T0 range 1 4 = empty"),
        ]
        for event, line in cases:
            assert format_event(event) == line
            assert parse_event(line) == event

    @given(history_events)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, event):
        assert parse_event(format_event(event)) == event

    def test_format_rejects_junk(self):
        with pytest.raises(ValueError):
            format_event(ev("T 0", "search", (1,), None, 0, 1))
        with pytest.raises(ValueError):
            format_event(ev("T0", "frobnicate", (1,), None, 0, 1))

    @pytest.mark.parametrize("line", [
        "no separator here",
        "0 1 T0 insert = true",              # missing args
        "0 1 T0 insert 5 7 = yes",           # bad boolean token
        "0 1 T0 search 5 = maybe",           # bad payload token
        "x 1 T0 search 5 = none",            # bad tick
        "0 1 T0 frobnicate 5 = none",        # unknown op
        "0 1 T0 range 1 = empty",            # wrong arity
        "0 1 T0 search 5 = none extra",      # trailing junk
    ])
    def test_parse_rejects_malformed(self, line):
        with pytest.raises(ValueError):
            parse_event(line)

    def test_file_round_trip(self, tmp_path):
        index = LearnedIndex.build([])
        rec = HistoryRecorder(index)
        rec.run("T0", "insert", 1, 7)
        rec.run("T1", "range", 0, 3)
        rec.run("T0", "search", 2)
        rec.run("T1", "delete", 1)
        path = tmp_path / "h.log"
        write_history(rec.history(), path)
        assert read_history(path) == rec.history()

    def test_reader_skips_blanks_and_comments(self, tmp_path):
        path = tmp_path / "h.log"
        path.write_text("# a remark\n\n0 1 T0 insert 5 1 = true\n   \n")
        events = read_history(path)
        assert len(events) == 1 and events[0].op == "insert"

    def test_reader_reports_file_and_line(self, tmp_path):
        path = tmp_path / "h.log"
        path.write_text("0 1 T0 insert 5 1 = true\n# fine\n0 1 T0 search = none\n")
        with pytest.raises(ValueError, match=r"h\.log:3: "):
            read_history(path)


class _SearchLiar:
    """Audit double: the real structure, but a point lookup that lies."""

    def __init__(self, inner):
        self.header = inner.header
        self.config = inner.config

    def search(self, key):
        return None


class TestAuditStructure:
    def test_fresh_build_is_clean(self):
        pairs = [(k, k * 2) for k in range(0, 500, 5)]
        index = LearnedIndex.build(pairs)
        report = audit_structure(index)
        assert report.ok
        assert report.live_map() == dict(pairs)

    def test_after_stress_matches_oracle(self):
        import random
        index = LearnedIndex.build([], SMALL)
        oracle = SequentialOracle()
        rnd = random.Random(77)
        for _ in range(4_000):
            k = rnd.randrange(120)
            if rnd.random() < 0.7:
                v = rnd.randrange(9)
                index.insert(k, v), oracle.insert(k, v)
            else:
                index.delete(k), oracle.delete(k)
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == oracle.live_map()

    def test_payloads_keep_deleted_keys(self):
        index = LearnedIndex.build([(1, 1), (2, 2), (3, 3)])
        index.delete(2)
        report = audit_structure(index)
        assert report.ok
        assert report.payloads == {1: 1, 2: None, 3: 3}
        assert report.live_map() == {1: 1, 3: 3}

    def test_detects_out_of_interval_and_duplicate_keys(self):
        index = LearnedIndex.build([(10, 1), (20, 2)])
        index.insert(15, 150)
        olb = index.root.children[1]
        index.root.children[0] = olb  # same bin reachable twice
        report = audit_structure(index)
        kinds = {f.kind for f in report.findings}
        assert "interval" in kinds and "duplicate-key" in kinds

    def test_detects_size_counter_drift(self):
        index = LearnedIndex.build([(0, 0), (100, 0)])
        index.insert(50, 5)
        olb = index.root.children[1]
        olb.size += 1
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"size-counter"}

    def test_detects_unstamped_interior_version(self):
        index = LearnedIndex.build([(10, 1)])
        heads = index.root.versions
        mid = VersionedValue(7, vnext=heads[0])      # never stamped
        heads[0] = VersionedValue(9, ts=5, vnext=mid)
        report = audit_structure(index, check_seek=False)
        assert "unstamped-version" in {f.kind for f in report.findings}

    def test_detects_timestamp_order_violation(self):
        index = LearnedIndex.build([(10, 1)])
        heads = index.root.versions
        tail = VersionedValue(7, ts=5, vnext=heads[0])
        heads[0] = VersionedValue(9, ts=2, vnext=tail)  # older stamp on top
        report = audit_structure(index, check_seek=False)
        assert "timestamp-order" in {f.kind for f in report.findings}

    def test_detects_overstated_model_precision(self):
        index = LearnedIndex.build([(k, 1) for k in (0, 100, 205, 300, 400)])
        seg = index.root.segments[0]
        doctored = seg._replace(model=Model(seg.model.a, seg.model.b, 1e-12))
        index.root.segments = [doctored]
        report = audit_structure(index)
        assert "model-error" in {f.kind for f in report.findings}

    def test_detects_overstated_precision_below_the_root(self):
        index = LearnedIndex.build([(0, 0), (1_000, 0)] + ROOM, SMALL)
        for k in range(1, 9):  # squares: no line fits them exactly
            index.insert(k * k, k)
        node = index.root.children[1]
        assert isinstance(node, ModelNode)
        assert audit_structure(index).ok
        seg = node.segments[0]
        node.segments = [seg._replace(model=seg.model._replace(eps=1e-12))]
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"model-error"}

    def test_detects_eps_above_the_target(self):
        # the residuals still fit the stated eps, but the stated eps breaks
        # the bound every node's segmentation keeps
        index = LearnedIndex.build([(k, 1) for k in (0, 100, 205, 300, 400)])
        seg = index.root.segments[0]
        assert audit_structure(index).ok
        too_wide = index.config.eps_target + 1
        index.root.segments = [seg._replace(model=seg.model._replace(eps=too_wide))]
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"eps-bound"}

    def test_detects_a_table_that_disagrees_with_its_segments(self):
        index = LearnedIndex.build([(k * k, 1) for k in range(40)])
        assert audit_structure(index).ok
        starts, rows = index.root.table
        first, last, a, c, w = rows[0]
        index.root.table = (starts, [(first, last, a, c, w + 1)])
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"locate-window"}

    def test_detects_a_window_that_misses_a_key(self):
        # table and segments agree, but the window is one short of the
        # widest miss, so some key's index falls outside it
        index = LearnedIndex.build([(k * k, 1) for k in range(40)])
        seg = index.root.segments[0]
        assert seg.window > 0
        index.root.segments = [seg._replace(window=seg.window - 1)]
        index.root.table = root_table(index.root.segments, len(index.root.keys))
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"locate-window"}
        assert "misses index" in report.findings[0].detail

    def test_detects_a_window_wider_than_eps_allows(self):
        # every key is inside, but eps no longer bounds the locate's work
        index = LearnedIndex.build([(k * k, 1) for k in range(40)])
        seg = index.root.segments[0]
        index.root.segments = [seg._replace(window=int(seg.model.eps) + 2)]
        index.root.table = root_table(index.root.segments, len(index.root.keys))
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"locate-window"}
        assert "wider than" in report.findings[0].detail

    def test_detects_lookup_walk_disagreement(self):
        index = LearnedIndex.build([(10, 1), (20, 2)])
        report = audit_structure(_SearchLiar(index))
        assert {f.kind for f in report.findings} == {"unreachable-key"}
        assert audit_structure(_SearchLiar(index), check_seek=False).ok

    def test_detects_a_frozen_node(self):
        # every compaction finishes before its op returns, so a quiescent
        # index has no frozen node; the walk still reads through one
        index = LearnedIndex.build([(0, 0), (1_000, 0)] + ROOM, SMALL)
        for k in range(1, 12):
            index.insert(k * k, k)
        node = index.root.children[1]
        assert isinstance(node, ModelNode)
        assert any(child is not EMPTY for child in node.children)
        assert audit_structure(index).ok
        node.frozen = (index.root, 1, node.keys)
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"frozen-node"}
        assert report.live_map() == {0: 0, 1_000: 0} | {k * k: k for k in range(1, 12)} | dict(
            ROOM)

    def test_detects_a_frozen_root(self):
        # the root is frozen and replaced by compactions like any node, so
        # a quiescent index has no frozen root either
        index = LearnedIndex.build([(0, 0), (1_000, 0)])
        root = index.root
        root.frozen = (index.header, 0, root.keys)
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"frozen-node"}
        assert report.live_map() == {0: 0, 1_000: 0}

    def test_detects_a_frozen_header(self):
        index = LearnedIndex.build([(0, 0), (1_000, 0)])
        assert audit_structure(index).ok
        index.header.frozen = (index.header, 0, [])
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"frozen-header"}
        assert report.live_map() == {0: 0, 1_000: 0}

    def test_detects_a_header_with_keys(self):
        index = LearnedIndex.build([(0, 0), (1_000, 0)])
        index.header.keys = [500]
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"header-keys"}

    @pytest.mark.parametrize("slots", [0, 2])
    def test_detects_a_header_without_one_slot(self, slots):
        index = LearnedIndex.build([(0, 0), (1_000, 0)])
        index.header.children = [index.root, EMPTY][:slots]
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"header-slots"}

    def test_detects_a_header_slot_without_a_model_node(self):
        index = LearnedIndex.build([(0, 0), (1_000, 0)])
        index.insert(500, 5)
        olb = index.root.children[1]
        for held in (olb, EMPTY):
            index.header.children[0] = held
            report = audit_structure(index)
            assert {f.kind for f in report.findings} == {"header-root"}, held

    @pytest.mark.parametrize("stray", ["none", "empty cell", "cell of a bin"])
    def test_detects_a_slot_holding_no_kind_of_child(self, stray):
        # a slot holds EMPTY, a bin or a model node: not None, and not a
        # cell of the layout in which every slot held one
        index = LearnedIndex.build([(0, 0), (1_000, 0)])
        index.insert(500, 5)
        olb = index.root.children[1]
        index.root.children[1] = {"none": None, "empty cell": AtomicRef(),
                                  "cell of a bin": AtomicRef(olb)}[stray]
        report = audit_structure(index)
        assert [f.kind for f in report.findings] == ["slot-kind"]

    def test_detects_an_array_of_odd_length(self):
        index = LearnedIndex.build([(0, 0), (1_000, 0)])
        for k in (10, 20):
            index.insert(k, k)
        olb = index.root.children[1]
        good = olb.items
        assert good[:2] == [10, 20] and len(good) == 4
        olb.items = good + [VersionedValue(30, 0)]
        report = audit_structure(index)
        assert [f.kind for f in report.findings] == ["list-shape"]
        olb.items = good
        assert audit_structure(index).ok

    def test_detects_keys_out_of_order_in_an_array(self):
        index = LearnedIndex.build([(0, 0), (1_000, 0)])
        for k in (10, 20):
            index.insert(k, k)
        olb = index.root.children[1]
        good = olb.items
        k10, k20, r10, r20 = good
        olb.items = [k20, k10, r20, r10]  # each key keeps its own head
        report = audit_structure(index)
        assert [f.kind for f in report.findings] == ["key-order"]
        olb.items = good
        assert audit_structure(index).ok

    def test_detects_a_frozen_bin(self):
        # every retrain finishes before its op returns, so a quiescent
        # index has no frozen bin; the walk still reads through one
        index = LearnedIndex.build([(0, 0), (1_000, 0)], SMALL)
        for k in range(10, 60, 10):  # the fifth insert splits the bin
            index.insert(k, k)
        index.insert(1_010, 1)
        tlb = index.root.children[1]
        assert not tlb.is_one_level and index.root.children[2].is_one_level
        assert audit_structure(index).ok
        freeze_bin(tlb)
        report = audit_structure(index)
        assert {f.kind for f in report.findings} == {"frozen-bin"}
        assert report.live_map() == {0: 0, 1_000: 0, 1_010: 1} | {
            k: k for k in range(10, 60, 10)}

    def test_detects_a_chain_head_that_is_not_a_cell(self):
        index = LearnedIndex.build([(0, 0), (1_000, 0)], SMALL)
        for k in range(10, 60, 10):  # the fifth insert splits the bin
            index.insert(k, k)
        lst = index.root.children[1].children[1]
        good = lst.items
        assert good[:2] == [30, 40] and len(good) == 6
        # a key's payload where its head belongs, and its head in a cell,
        # as the layout before heads sat in the array held it
        for stray in (good[3].val, AtomicRef(good[3])):
            lst.items = good[:3] + [stray] + good[4:]
            report = audit_structure(index)
            assert [f.kind for f in report.findings] == ["list-shape"], stray
        lst.items = good
        assert audit_structure(index).ok

    def test_detects_a_model_node_head_that_is_not_a_version(self):
        index = LearnedIndex.build([(0, 0), (1_000, 7)])
        heads = index.root.versions
        good = heads[1]
        for stray in (None, good.val, AtomicRef(good)):
            heads[1] = stray
            report = audit_structure(index)
            assert [f.kind for f in report.findings] == ["node-shape"], stray
            assert report.live_map() == {0: 0}
        heads[1] = good
        assert audit_structure(index).ok

    def test_deep_nesting_is_walked_without_recursion(self):
        # a hand-built chain of nested one-key nodes, deeper than the
        # interpreter's recursion limit
        index = LearnedIndex.build([(0, 0)])
        depth = 1_200
        parent = index.root
        for k in range(1, depth + 1):
            node = ModelNode([k], [VersionedValue(k, 0)],
                             index.config.eps_target)
            parent.children[-1] = node
            parent = node
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == {k: k for k in range(depth + 1)}
        assert index.range(0, KEY_MAX) == [(k, k) for k in range(depth + 1)]
