"""The index proper: build, seek, point ops, and bin-to-node helping."""

import dataclasses
import gc
import math
import random
import struct
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lfindex.bins as bins_mod
import lfindex.index as index_mod
import lfindex.models as models_mod
from lfindex import DatasetSpec, core, generate_dataset, rangescan
from lfindex.bins import (UNDER_MAKE_MODEL, OneLevelBin, collect_frozen, freeze_bin,
                          insert_bin, search_bin)
from lfindex.core import EMPTY, KEY_MAX, set_cas_hook
from lfindex.index import FOUND, IndexConfig, LearnedIndex, ModelNode
from lfindex.models import segment_root
from lfindex.verify import (HistoryEvent, HistoryRecorder, SequentialOracle,
                            audit_structure, check_linearizable)

SMALL = IndexConfig(olb_threshold=4)


def segment_bits(segments):
    """Each segment's start and the bytes of its model's floats."""
    return [(s.start_key, s.start_index, struct.pack("<ddd", *s.model)) for s in segments]


def with_room(pairs, room=1_024):
    """``pairs`` and ``room`` more keys at the top of the domain.

    A root that holds more keys than a scenario puts below it is never a
    retrain's top (``COMPACT_RATIO``), so the scenario's top stays the
    node or bin it names.  The room sits above every scenario key, so a
    scan over those keys never reaches it."""
    return list(pairs) + [(k, k) for k in range(KEY_MAX - room + 1, KEY_MAX + 1)]


def model_nodes(index):
    """(node, depth) for every model node, the root at depth 1."""
    out, stack = [], [(index.root, 1)]
    while stack:
        node, depth = stack.pop()
        out.append((node, depth))
        for child in node.children:
            if isinstance(child, ModelNode):
                stack.append((child, depth + 1))
    return out


def list_lengths(index):
    """The keys of every bin."""
    out = []
    for node, _ in model_nodes(index):
        for child in node.children:
            if child is EMPTY or isinstance(child, ModelNode):
                continue
            out.append(len(child.items) >> 1)
    return out


def slot_type(index, key):
    _, _, child = index.seek(key)
    if child is FOUND:
        return "model-key"
    if child is EMPTY:
        return "empty"
    if isinstance(child, OneLevelBin):
        return "olb"
    return "model"


class TestBuild:
    def test_ten_pairs_eleven_child_slots(self):
        index = LearnedIndex.build([(i, i) for i in range(10)])
        assert len(index.root.keys) == 10
        assert len(index.root.children) == 11
        assert all(c is EMPTY for c in index.root.children)

    def test_empty_build_answers_absent(self):
        index = LearnedIndex.build([])
        assert len(index.root.keys) == 0
        assert len(index.root.children) == 1
        for k in (0, 5, KEY_MAX):
            assert index.search(k) is None

    def test_built_pairs_are_searchable(self):
        pairs = [(k, k * 3) for k in range(0, 1000, 7)]
        index = LearnedIndex.build(pairs)
        for k, v in pairs:
            assert index.search(k) == v

    def test_clock_and_stamps_start_at_zero(self):
        index = LearnedIndex.build([(1, 1), (2, 2)])
        assert index.clock.read() == 0
        assert all(ref.load().ts == 0 for ref in index.root.versions)

    def test_numpy_keys_are_stored_as_ints(self):
        # a build straight from generate_dataset stores plain ints, so it
        # fits and returns exactly what the same int keys do
        keys = generate_dataset(DatasetSpec(size=1_000, seed=3))
        assert keys.dtype == np.uint64
        index = LearnedIndex.build(zip(keys, range(len(keys))))
        ints = LearnedIndex.build(zip(keys.tolist(), range(len(keys))))
        assert all(type(k) is int for k in index.root.keys)
        assert index.root.keys == ints.root.keys
        assert index.root.segments == ints.root.segments
        assert index.insert(keys[5] + np.uint64(1), -1) is True
        got = index.range(0, KEY_MAX)
        assert len(got) == len(keys) + 1
        assert all(type(k) is int for k, _ in got)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            LearnedIndex.build([(2, 1), (1, 1)])      # unsorted
        with pytest.raises(ValueError):
            LearnedIndex.build([(1, 1), (1, 2)])      # duplicate
        with pytest.raises(ValueError):
            LearnedIndex.build([(1, None)])           # absent payload
        with pytest.raises(ValueError):
            LearnedIndex.build([(-1, 1)])             # below the domain
        with pytest.raises(ValueError):
            LearnedIndex.build([(KEY_MAX + 1, 1)])    # above the domain

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IndexConfig(olb_threshold=0)
        with pytest.raises(ValueError):
            IndexConfig(eps_target=0.0)
        assert [f.name for f in dataclasses.fields(IndexConfig)] == [
            "eps_target", "olb_threshold"]

    def test_config_sizes_are_taken_like_keys(self):
        # a float size would be accepted and then compared with every
        # bin's length
        for size in (64.0, 2.5):
            with pytest.raises(TypeError):
                IndexConfig(olb_threshold=size)
        for size in (np.int64(4), np.int32(4), np.uint16(4)):
            cfg = IndexConfig(olb_threshold=size)
            assert cfg == IndexConfig(olb_threshold=4)
            assert type(cfg.olb_threshold) is int
        index = LearnedIndex.build([(0, 0)], cfg)
        for k in range(1, 200):
            assert index.insert(k, k) is True
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == {k: k for k in range(200)}


@pytest.fixture
def gc_state():
    """Restore the cyclic collector's on/off state after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestBuildPausesTheCollector:
    """``build`` makes its per-key versions with the cyclic collector paused
    and leaves the collector as it found it on every exit."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, gc_state, enabled):
        (gc.enable if enabled else gc.disable)()
        index = LearnedIndex.build([(k, k) for k in range(1_000)])
        assert gc.isenabled() is enabled
        assert index.search(999) == 999
        with pytest.raises(ValueError):
            LearnedIndex.build([(2, 1), (1, 1)])
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_a_cell_fails(self, gc_state, monkeypatch, enabled):
        seen = []

        def failing_version(value, ts):
            seen.append(gc.isenabled())
            if len(seen) == 50:
                raise MemoryError("planted")
            return core.VersionedValue(value, ts)

        monkeypatch.setattr(index_mod, "VersionedValue", failing_version)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(MemoryError, match="planted"):
            LearnedIndex.build([(k, k) for k in range(100)])
        assert gc.isenabled() is enabled
        assert seen == [False] * 50  # every version was made with the collector paused

    def test_a_large_build_runs_no_older_generation_collection(self, gc_state):
        # a point_skewed-size build: 500k keys, 500k versions.  Unpaused,
        # the versions alone trigger hundreds of young and several full
        # collections.
        pairs = [(2 * k, k) for k in range(500_000)]
        runs = Counter()

        def count(phase, info):
            if phase == "start":
                runs[info["generation"]] += 1

        gc.enable()
        gc.collect()
        gc.callbacks.append(count)
        try:
            index = LearnedIndex.build(pairs)
        finally:
            gc.callbacks.remove(count)
        assert len(index.root.keys) == 500_000
        assert runs[1] == runs[2] == 0, runs


def tracked_since(action):
    """Type names, one per object, by which ``action`` grew the objects the
    collector tracks, counted over ``gc.get_objects()`` after a full
    collection: an object it replaced, as a splice replaces its list's
    array, offsets the one that replaced it."""
    _tracked_types()  # whatever a first count makes once
    gc.collect()
    before = _tracked_types()
    action()
    after = _tracked_types()
    return sorted((Counter(after) - Counter(before)).elements())


def _tracked_types():
    """Tracked objects per type name, as a plain dict of str to int, which
    the collector does not track, so a count does not count the last one."""
    counts = Counter(type(o).__name__ for o in gc.get_objects())
    return {name: n for name, n in counts.items()}


class TestTrackedObjects:
    """A key is a slot of its owner's array (two for a bin key) and its
    chain: the head sits in the array itself, a splice replaces the array,
    and a slot holds its child, so no node, cell or link object comes with
    a key."""

    def test_a_first_insert_into_an_empty_slot_leaves_three(self):
        index = LearnedIndex.build([(0, 0), (100, 0), (200, 0)])
        assert index.insert(150, 1) is True  # warm-up, in another slot
        assert tracked_since(lambda: index.insert(50, 5)) == [
            "OneLevelBin", "VersionedValue", "list"]
        assert audit_structure(index).ok

    def test_a_key_spliced_into_a_one_level_bin_leaves_one(self):
        index = LearnedIndex.build([(0, 0), (100, 0), (200, 0)])
        for k in (50, 150, 160):
            assert index.insert(k, k) is True
        # after the first key, and before it
        for k in (60, 40):
            assert tracked_since(lambda: index.insert(k, k)) == ["VersionedValue"], k
        _, _, olb = index.seek(50)
        assert isinstance(olb, OneLevelBin) and olb.items[:3] == [40, 50, 60]
        assert audit_structure(index).ok

    def test_an_overwrite_leaves_one(self):
        index = LearnedIndex.build([(0, 0), (100, 0), (200, 0)])
        for k in (50, 60):
            assert index.insert(k, k) is True
        # a model key, a bin key, and a delete of each
        for k, v in ((100, 1), (60, 61), (100, None), (60, None)):
            write = (lambda: index.insert(k, v)) if v is not None else (lambda: index.delete(k))
            assert tracked_since(write) == ["VersionedValue"], (k, v)
        assert audit_structure(index).ok

    def test_a_build_leaves_one_per_key(self):
        built, rest = [], []
        for n in (1_000, 2_000):
            grew = Counter(tracked_since(
                lambda: built.append(LearnedIndex.build([(k, k) for k in range(n)]))))
            assert grew.pop("VersionedValue") == n
            rest.append(grew)
        # the rest is the index's own few objects, whatever its size
        assert rest[0] == rest[1] and sum(rest[0].values()) < 30, rest


class TestSeek:
    def test_found_in_root(self):
        index = LearnedIndex.build([(10, 1), (20, 2)])
        node, i, child = index.seek(10)
        assert child is FOUND
        assert node is index.root and i == 0

    def test_empty_slot(self):
        index = LearnedIndex.build([(10, 1), (20, 2)])
        node, slot, child = index.seek(15)
        assert child is EMPTY
        assert node is index.root and slot == 1

    def test_bin_slot(self):
        index = LearnedIndex.build([(10, 1), (20, 2)])
        index.insert(15, 150)
        node, slot, child = index.seek(16)
        assert isinstance(child, OneLevelBin)
        assert slot == 1
        assert child is node.children[slot]

    def test_descends_into_retrained_nodes(self):
        index = LearnedIndex.build(with_room([(0, 0), (1000, 1)]), SMALL)
        keys = list(range(100, 500, 10))
        for k in keys:
            index.insert(k, k)
        # enough inserts for slot 1 to have become a model node
        node, i, child = index.seek(keys[0])
        assert child is FOUND
        assert node is not index.root and node.keys[i] == keys[0]
        for k in keys:
            assert index.search(k) == k

    def test_out_of_domain_keys_rejected(self):
        index = LearnedIndex.build([(10, 1)])
        with pytest.raises(ValueError):
            index.insert(-5, 1)
        with pytest.raises(ValueError):
            index.insert(KEY_MAX + 1, 1)
        with pytest.raises(ValueError):
            index.delete(-5)
        with pytest.raises(ValueError):
            index.delete(KEY_MAX + 1)
        with pytest.raises(ValueError):
            index.search(KEY_MAX + 1)
        with pytest.raises(ValueError):
            index.range(KEY_MAX + 1, 0)


class TestKeyDomain:
    """Keys are 63-bit; tests elsewhere probe the edges through KEY_MAX."""

    def test_key_max_is_the_63_bit_top(self):
        assert KEY_MAX == 2**63 - 1

    def test_top_key_accepted_by_every_operation(self):
        top = 2**63 - 1
        index = LearnedIndex.build([(5, 1), (top, 2)])
        assert index.search(top) == 2
        assert index.range(top, 2**64) == [(top, 2)]
        assert index.delete(top) is True
        assert index.insert(top, 3) is True
        assert index.search(top) == 3
        fresh = LearnedIndex.build([(5, 1)])
        assert fresh.insert(top, 4) is True     # lands in a bin
        assert fresh.search(top) == 4
        assert fresh.range(top - 1, 1) == [(top, 4)]
        assert fresh.delete(top) is True
        assert audit_structure(fresh).ok

    def test_float_keys_are_refused_by_every_operation(self):
        index = LearnedIndex.build([(4, 1), (9, 2)])
        with pytest.raises(TypeError):
            index.search(4.0)
        with pytest.raises(TypeError):
            index.delete(4.0)
        with pytest.raises(TypeError):
            index.insert(4.0, 3)
        with pytest.raises(TypeError):
            index.range(4.0, 1)
        with pytest.raises(TypeError):
            index.range(4, 1.0)
        assert index.search(4) == 1
        assert index.range(0, 10) == [(4, 1), (9, 2)]

    def test_numpy_keys_act_as_the_ints_they_equal(self):
        top = 2**63 - 1
        index = LearnedIndex.build([(5, 1), (top, 2)])
        assert index.search(np.uint64(5)) == 1
        got = index.range(np.uint64(5), 2**64)  # saturates at the top key
        assert got == [(5, 1), (top, 2)]
        assert all(type(k) is int for k, _ in got)
        assert index.range(5, np.uint64(2**64 - 1)) == got
        assert index.insert(np.int64(6), 3) is True
        assert index.delete(np.uint64(6)) is True
        assert index.search(np.int32(6)) is None
        assert audit_structure(index).ok

    def test_the_range_cap_is_taken_like_the_key(self):
        index = LearnedIndex.build([(k, k) for k in range(0, 50, 5)])
        with pytest.raises(TypeError):
            index.range(0, 50, 2.5)
        got = index.range(0, 50, np.int64(3))
        assert got == index.range(0, 50, 3) == [(0, 0), (5, 5), (10, 10)]
        assert index.range(0, 50, np.uint64(0)) == []
        with pytest.raises(ValueError):
            index.range(0, 50, np.int32(-1))


class TestInsert:
    def test_fresh_key_creates_a_bin(self):
        index = LearnedIndex.build([(10, 1), (20, 2)])
        assert slot_type(index, 15) == "empty"
        assert index.insert(15, 150) is True
        assert slot_type(index, 15) == "olb"
        assert index.search(15) == 150

    def test_same_pair_twice(self):
        index = LearnedIndex.build([])
        assert index.insert(7, 70) is True
        assert index.insert(7, 70) is False
        assert index.insert(7, 71) is True

    def test_model_key_update(self):
        index = LearnedIndex.build([(10, 1)])
        assert index.insert(10, 1) is False
        assert index.insert(10, 9) is True
        assert index.search(10) == 9

    def test_absent_payload_rejected(self):
        index = LearnedIndex.build([])
        with pytest.raises(ValueError):
            index.insert(1, None)

    def test_threshold_trigger_keeps_every_key(self):
        index = LearnedIndex.build([(0, 0), (10_000, 0)])
        keys = list(range(100, 357))  # 257th distinct insert crosses 256
        for k in keys:
            assert index.insert(k, k) is True
        assert slot_type(index, 100) in ("model-key", "model")
        for k in keys:
            assert index.search(k) == k

    @pytest.mark.parametrize("cfg", [SMALL, IndexConfig()], ids=["small", "default"])
    def test_full_lifecycle_in_one_slot(self, cfg):
        # the transition points are the config's: a new bin at the first
        # insert, and a retrain into a model node at olb_threshold + 1
        keys = range(100, 100 + 5 * cfg.olb_threshold)
        index = LearnedIndex.build(with_room([(0, 0), (10_000, 0)], len(keys)), cfg)
        seen = []
        done = [0]
        index.transition_log = lambda parent, slot, old, new: seen.append(
            (done[0] + 1, type(old).__name__ if old is not None else "empty",
             type(new).__name__, new))
        for k in keys:
            index.insert(k, k)
            done[0] += 1
        steps = [step[:3] for step in seen[:2]]
        assert steps == [(1, "empty", "OneLevelBin"),
                         (cfg.olb_threshold + 1, "OneLevelBin", "ModelNode")]
        assert seen[1][3].keys == list(keys[:cfg.olb_threshold])
        legal = {("empty", "OneLevelBin"), ("OneLevelBin", "ModelNode"),
                 ("ModelNode", "ModelNode")}
        assert {step[1:3] for step in seen} <= legal
        for k in keys:
            assert index.search(k) == k

    def test_ascending_inserts_keep_every_list_bounded(self):
        # ascending keys all route to the last bin, which is retrained once
        # it holds olb_threshold keys, so no array holds more
        cfg = IndexConfig()
        index = LearnedIndex.build([(0, 0), (10_000, 0)], cfg)
        for k in range(100, 3_100):
            assert index.insert(k, k) is True
        lengths = list_lengths(index)
        assert lengths and max(lengths) <= cfg.olb_threshold
        assert all(index.search(k) == k for k in range(100, 3_100))

    def test_racing_first_inserts_install_one_bin(self, monkeypatch):
        # eight first inserts into one empty slot: one install wins, the
        # losers retry through seek and splice into the winner's bin.  Each
        # thread waits after building its bin, so all eight saw the slot
        # empty and exactly seven installs lose in every trial.
        hook_rnd = random.Random(16)
        lost = [0]
        keys = list(range(100, 900, 100))
        old_interval = sys.getswitchinterval()
        real_bin_new = index_mod.bin_new
        for trial in range(50):
            index = LearnedIndex.build([(0, 0), (1000, 0)])
            built = threading.Barrier(len(keys))

            def bin_new(*args):
                out = real_bin_new(*args)
                built.wait(10)
                return out

            monkeypatch.setattr(index_mod, "bin_new", bin_new)

            def stall(target, ok):
                # a lost install names the child it found, the winner's bin;
                # a lost splice names an array, never a slot's child
                if not ok and not isinstance(target, list):
                    assert target is index.root.children[1]
                    lost[0] += 1
                if hook_rnd.random() < 0.3:
                    time.sleep(1e-5)

            installs = []
            index.transition_log = lambda parent, slot, old, new: installs.append((old, new))
            results = [None] * len(keys)
            barrier = threading.Barrier(len(keys))

            def run(j):
                barrier.wait(10)
                results[j] = index.insert(keys[j], keys[j])

            threads = [threading.Thread(target=run, args=(j,)) for j in range(len(keys))]
            sys.setswitchinterval(1e-6)
            set_cas_hook(stall)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                set_cas_hook(None)
                sys.setswitchinterval(old_interval)
            assert not any(t.is_alive() for t in threads)
            assert len(installs) == 1, f"trial {trial}: {installs}"
            assert installs[0][0] is None and isinstance(installs[0][1], OneLevelBin)
            assert results == [True] * len(keys)
            for k in keys:
                assert index.search(k) == k
            report = audit_structure(index)
            assert report.ok, report.findings[:3]
        assert lost[0] == 50 * (len(keys) - 1)  # every loser retried once


class TestFirstInsertStamp:
    """A fresh bin's version carries the clock reading that the ``dcss``
    installing it compares."""

    def test_snapshot_taken_before_the_install_excludes_the_key(self, monkeypatch):
        # insert(15) is preempted between building its bin and installing it;
        # meanwhile a scan takes its snapshot time, insert(10) completes and
        # search(15) reports the key absent.  Installed with the reading it
        # was built with, the key would fall inside the scan's snapshot and
        # break linearizability; the install fails and the retry is later.
        index = LearnedIndex.build([(10, 100), (20, 200)])
        rec = HistoryRecorder(index)
        took_ts, go = threading.Event(), threading.Event()
        real_scan = rangescan.scan

        def paused_scan(*args):
            took_ts.set()
            assert go.wait(10)
            return real_scan(*args)

        monkeypatch.setattr(rangescan, "scan", paused_scan)
        scanner = threading.Thread(target=rec.run, args=("s", "range", 0, 100))
        real_bin_new = index_mod.bin_new

        def preempted_bin_new(*args):
            fresh = real_bin_new(*args)
            if took_ts.is_set():
                return fresh  # the retry after the scan's bump
            scanner.start()
            assert took_ts.wait(10)
            rec.run("b", "insert", 10, 111)
            rec.run("b", "search", 15)
            return fresh

        monkeypatch.setattr(index_mod, "bin_new", preempted_bin_new)
        assert rec.run("a", "insert", 15, 150) is True
        go.set()
        scanner.join(timeout=10)
        assert not scanner.is_alive()
        # the checker starts from an empty map: the bulk load goes first
        loaded = [HistoryEvent("b", "insert", (10, 100), True, -4, -3),
                  HistoryEvent("b", "insert", (20, 200), True, -2, -1)]
        result = check_linearizable(loaded + rec.history())
        assert result.ok, result.failing_prefix

    def test_the_inserted_key_is_stamped_not_the_bins_first(self):
        # a splice that lands ahead of the fresh key right after the install
        # brings its own version; the fresh key's was complete before it
        index = LearnedIndex.build([(0, 0), (100, 0)])
        index.clock.read_and_bump()
        seen = []

        def splice_below(parent, slot, old, new):
            if old is None:
                seen.append(search_bin(new, 50).ts)
                index.clock.read_and_bump()
                assert insert_bin(new, 40, 4, index.clock) is True

        index.transition_log = splice_below
        assert index.insert(50, 5) is True
        _, _, bin_ = index.seek(50)
        assert bin_.items[:2] == [40, 50]
        assert seen == [1] and search_bin(bin_, 50).ts == 1
        assert search_bin(bin_, 40).ts == 2
        assert index.range(0, 100) == [(0, 0), (40, 4), (50, 5), (100, 0)]
        report = audit_structure(index)
        assert report.ok, report.findings[:3]


class TestAScanBetweenTheClockReadAndTheStep:
    """A writer reads the clock, builds its version with that reading and
    publishes it in one guarded step that compares the clock.  A scan whose
    bump lands in between fails the step; the retry carries a later
    timestamp, and the scan's result is the state at its ``ts``."""

    LO, HI = 0, 1_000

    def race(self, monkeypatch, owner, step, index, write):
        """Run ``write`` with one scan forced in just before its first call
        of ``owner.step``; (step results, scan ts, scan result)."""
        real = getattr(owner, step)
        results, scans = [], []

        def raced(*args):
            if not results:
                ts = index.clock.read()
                scans.append((ts, index.range(self.LO, self.HI - self.LO)))
                assert index.clock.read() == ts + 1
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(owner, step, raced)
        assert write() is True
        monkeypatch.setattr(owner, step, real)
        (ts, got), = scans
        return results, ts, got

    def check(self, index, results, ts, got, before, key, value):
        assert results[0] is False and results[-1] is True
        assert got == before  # the scan saw the state before the write
        again = []
        rangescan.scan(index.root, self.LO, self.HI, ts, again)
        assert again == before  # and the state at its ts stays that
        assert index.search(key) == value
        node, i, child = index.seek(key)
        head = node.versions[i] if child is FOUND else search_bin(child, key)
        assert head.val == value and head.ts >= ts + 1
        report = audit_structure(index)
        assert report.ok, report.findings[:3]

    def test_a_head_write_fails_and_retries_later(self, monkeypatch):
        # a model node's key, a bin key's overwrite and a bin key's delete
        for key, value in ((20, 21), (15, 16), (15, None)):
            index = LearnedIndex.build([(10, 10), (20, 20), (30, 30)])
            assert index.insert(15, 15) is True
            before = index.range(self.LO, self.HI - self.LO)
            write = ((lambda: index.delete(key)) if value is None
                     else (lambda: index.insert(key, value)))
            results, ts, got = self.race(monkeypatch, core, "write_head", index, write)
            self.check(index, results, ts, got, before, key, value)

    def test_a_splice_fails_and_retries_later(self, monkeypatch):
        index = LearnedIndex.build([(10, 10), (20, 20), (30, 30)])
        assert index.insert(15, 15) is True
        before = index.range(self.LO, self.HI - self.LO)
        results, ts, got = self.race(monkeypatch, bins_mod, "splice", index,
                                     lambda: index.insert(17, 17))
        self.check(index, results, ts, got, before, 17, 17)

    def test_a_first_insert_install_fails_and_retries_later(self, monkeypatch):
        index = LearnedIndex.build([(10, 10), (20, 20), (30, 30)])
        before = index.range(self.LO, self.HI - self.LO)
        results, ts, got = self.race(monkeypatch, index_mod, "dcss", index,
                                     lambda: index.insert(15, 15))
        self.check(index, results, ts, got, before, 15, 15)


class TestDelete:
    def test_delete_then_search_absent(self):
        index = LearnedIndex.build([(10, 1)])
        assert index.delete(10) is True
        assert index.search(10) is None

    def test_absent_key(self):
        index = LearnedIndex.build([(10, 1)])
        assert index.delete(11) is False
        assert index.delete(10) is True
        assert index.delete(10) is False

    def test_delete_and_reinsert(self):
        index = LearnedIndex.build([(10, 1)])
        index.delete(10)
        assert index.insert(10, 2) is True
        assert index.search(10) == 2

    def test_delete_key_living_in_a_bin(self):
        index = LearnedIndex.build([(0, 0), (100, 0)])
        index.insert(50, 5)
        assert index.delete(50) is True
        assert index.search(50) is None
        assert index.delete(50) is False

    def test_writes_that_meet_a_frozen_bin_help_and_land(self, monkeypatch):
        # a frozen bin never changes: the delete that meets it helps replace
        # it and lands in the replacement, and the writes after it land
        # there with no further help
        index = LearnedIndex.build([(0, 0), (1000, 0)], SMALL)
        for k in (10, 20, 30):
            index.insert(k, k)
        node, slot, bin_ = index.seek(10)
        assert isinstance(bin_, OneLevelBin)
        freeze_bin(bin_)
        items = bin_.items
        heads = items[3:]
        helps = []
        real_help = LearnedIndex.help_make_model

        def counting_help(self, *args):
            helps.append(args)
            return real_help(self, *args)

        monkeypatch.setattr(LearnedIndex, "help_make_model", counting_help)
        log = []
        index.transition_log = lambda *step: log.append(step)
        assert index.delete(10) is True
        assert len(helps) == 1 and len(log) == 1
        # the bin's 3 keys outnumber the root's 2: the retrain's top is the root
        assert isinstance(log[0][3], ModelNode) and index.root is log[0][3]
        assert bin_.items is items and all(a is b for a, b in zip(items[3:], heads))
        assert index.insert(20, 21) is True
        assert index.search(10) is None and index.search(20) == 21
        assert index.insert(25, 25) is True  # a first insert: an install, no help
        assert len(helps) == 1 and [step[2] for step in log] == [node, None]
        assert index.search(10) is None
        assert index.search(20) == 21 and index.search(25) == 25
        assert index.range(0, 1000) == [(0, 0), (20, 21), (25, 25), (30, 30), (1000, 0)]
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == {0: 0, 20: 21, 25: 25, 30: 30, 1000: 0}


class TestHelpMakeModel:
    def test_full_bin_becomes_a_model_node(self):
        cfg = IndexConfig(olb_threshold=1024)
        index = LearnedIndex.build(with_room([(0, 0), (10**6, 0)]), cfg)
        keys = random.Random(1).sample(range(100, 10_000), 1024)
        for k in keys:
            index.insert(k, k)
        node, slot, bin_ = index.seek(keys[0])
        assert isinstance(bin_, OneLevelBin)
        heads = bin_.items[1024:]
        assert len(heads) == 1024
        index.help_make_model(node, slot, bin_)
        fresh = node.children[slot]
        assert isinstance(fresh, ModelNode)
        assert fresh.keys == sorted(keys)
        # the node holds the retired bin's chain heads, not copies
        assert all(a is b for a, b in zip(fresh.versions, heads, strict=True))
        assert len(fresh.children) == 1025
        assert all(c is EMPTY for c in fresh.children)
        for k in keys:
            assert index.search(k) == k

    def test_eight_helpers_install_exactly_one_replacement(self):
        # the one retrain step: a full bin becomes a model node
        hook_rnd = random.Random(14)
        set_cas_hook(lambda c, ok: time.sleep(1e-5) if hook_rnd.random() < 0.1 else None)
        keys = [10, 20, 30, 40]
        try:
            for trial in range(20):
                index = LearnedIndex.build(with_room([(0, 0), (1000, 0)]), SMALL)
                for k in keys:
                    index.insert(k, k)
                node, slot, bin_ = index.seek(10)
                installs = []
                index.transition_log = (
                    lambda parent, slot, old, new: installs.append((slot, new)))
                barrier = threading.Barrier(8)

                def help_out():
                    barrier.wait()
                    index.help_make_model(node, slot, bin_)

                threads = [threading.Thread(target=help_out) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                fresh = node.children[slot]
                assert installs == [(slot, fresh)], f"trial {trial}: {installs}"
                assert isinstance(fresh, ModelNode)
                got_keys, versions = collect_frozen(bin_)
                assert fresh.keys == got_keys == keys
                assert all(a is b for a, b in zip(fresh.versions, versions, strict=True))
                assert (segment_bits(fresh.segments)
                        == segment_bits(segment_root(keys, SMALL.eps_target)))
                for k in keys:
                    assert index.search(k) == k
                report = audit_structure(index)
                assert report.ok, report.findings[:3]
        finally:
            set_cas_hook(None)

    def test_search_never_helps(self):
        index = LearnedIndex.build([(0, 0), (1000, 0)], SMALL)
        for k in (10, 20, 30):
            index.insert(k, k)
        node, slot, bin_ = index.seek(10)
        freeze_bin(bin_)
        for k in (10, 20, 30):
            assert index.search(k) == k
        assert node.children[slot] is bin_  # untouched by searches


class TestOracleConformance:
    def test_random_ops_match_oracle(self):
        index = LearnedIndex.build([(k, k) for k in range(0, 200, 2)], SMALL)
        oracle = SequentialOracle.from_pairs([(k, k) for k in range(0, 200, 2)])
        rnd = random.Random(2)
        for i in range(20_000):
            r = rnd.random()
            k = rnd.randrange(250)
            if r < 0.45:
                assert index.search(k) == oracle.search(k), (i, k)
            elif r < 0.7:
                v = rnd.randrange(6)
                assert index.insert(k, v) == oracle.insert(k, v), (i, k)
            elif r < 0.9:
                assert index.delete(k) == oracle.delete(k), (i, k)
            else:
                w = rnd.randrange(40)
                assert index.range(k, w) == oracle.range(k, w), (i, k)
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == oracle.live_map()

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40), st.integers(0, 3)),
                    max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_op_sequences_match_oracle_property(self, ops):
        cfg = IndexConfig(olb_threshold=3)
        index = LearnedIndex.build([(5, 0), (25, 0)], cfg)
        oracle = SequentialOracle.from_pairs([(5, 0), (25, 0)])
        for code, k, v in ops:
            if code == 0:
                assert index.search(k) == oracle.search(k)
            elif code == 1:
                assert index.insert(k, v) == oracle.insert(k, v)
            elif code == 2:
                assert index.delete(k) == oracle.delete(k)
            else:
                assert index.range(k, v * 5) == oracle.range(k, v * 5)
        assert audit_structure(index).ok


class TestLockFreedomProxy:
    def test_every_failed_cas_follows_a_success_on_that_cell(self):
        # the hook fires inside the one lock every guarded step takes, so
        # the event order is the true order of all steps, and of each cell's:
        # a failure means someone already advanced the cell, which is the
        # lock-freedom progress argument
        # a seeded stall inside the critical section makes the threads
        # collide on every run, not only when the scheduler happens to.
        # A splice names the bin's array, and one that fails on a frozen
        # bin names the array it held when it froze, which the
        # freeze's event records here, inside the lock, as that step's
        events = []  # (cell, ok), holding each cell so no id is reused
        hook_rnd = random.Random(15)

        def record(cell, ok):
            events.append((cell, ok))
            if ok and isinstance(cell, OneLevelBin) and cell.frozen:
                # a freeze, not the install of a fresh bin
                events.append((cell.items, True))
            if hook_rnd.random() < 0.05:
                time.sleep(1e-5)

        set_cas_hook(record)
        try:
            index = LearnedIndex.build([(0, 0), (10**6, 0)], SMALL)
            shares = [list(range(100 + t, 3_000, 4)) for t in range(4)]
            barrier = threading.Barrier(4)

            def run(keys):
                barrier.wait()
                for k in keys:
                    index.insert(k, k)

            threads = [threading.Thread(target=run, args=(s,)) for s in shares]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            set_cas_hook(None)
        succeeded = set()
        failures_checked = 0
        for cell, ok in events:
            if ok:
                succeeded.add(id(cell))
            else:
                assert id(cell) in succeeded, "CAS failed with no prior success on its cell"
                failures_checked += 1
        # the run must actually have produced contention to be meaningful
        assert failures_checked > 0
        for t, share in enumerate(shares):
            for k in share:
                assert index.search(k) == k


TINY = IndexConfig(olb_threshold=8)


class TestSlotDiscipline:
    """Empty slots share ``core.EMPTY``, which nothing writes; an install
    stores a fresh child in its slot, and a slot holds nothing else."""

    def test_build_and_first_inserts_swap_cells(self):
        index = LearnedIndex.build([(k, 0) for k in range(0, 500, 100)], SMALL)
        root = index.root
        assert all(c is core.EMPTY for c in root.children)
        index.insert(50, 5)
        assert [c is core.EMPTY for c in root.children] == [True, False] + [True] * 4
        assert core.EMPTY.value is None
        olb = root.children[1]
        assert isinstance(olb, OneLevelBin)
        # a child loaded before an install is still the whole old child
        # after it: the install stores a new child, it writes no old one
        empty = root.children[2]
        for k in (10, 20, 30, 40, 150):  # slot 1's fifth key retrains its bin
            index.insert(k, k)
        assert isinstance(root.children[1], ModelNode)
        assert olb.frozen is not None and search_bin(olb, 50).val == 5
        assert isinstance(root.children[2], OneLevelBin)
        assert empty is core.EMPTY and empty.value is None

    def test_retrained_and_compacted_nodes_start_empty(self):
        index = LearnedIndex.build([(0, 0)], TINY)
        starts = {"retrain": [], "compact": []}

        def log(parent, slot, old, new):
            if isinstance(new, ModelNode):
                kind = "compact" if isinstance(old, ModelNode) else "retrain"
                starts[kind].append(all(c is core.EMPTY for c in new.children))

        index.transition_log = log
        for k in range(1, 2_000):
            index.insert(k, k)
        assert starts["retrain"] and starts["compact"]
        assert all(starts["retrain"]) and all(starts["compact"])

    def test_a_mixed_run_never_writes_the_shared_cell(self):
        rnd = random.Random(11)
        index = LearnedIndex.build([(k, k) for k in range(0, 4_000, 400)], TINY)
        oracle = SequentialOracle.from_pairs([(k, k) for k in range(0, 4_000, 400)])
        for _ in range(6_000):
            k, r = rnd.randrange(4_000), rnd.random()
            if r < 0.6:
                v = rnd.randrange(1_000)
                assert index.insert(k, v) == oracle.insert(k, v)
            elif r < 0.85:
                assert index.delete(k) == oracle.delete(k)
            else:
                assert index.range(k, 300) == oracle.range(k, 300)
        assert core.EMPTY.value is None
        for node, _ in model_nodes(index):
            for c in node.children:
                assert c is core.EMPTY or isinstance(c, (OneLevelBin, ModelNode))
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == oracle.live_map()


class TestRightEdgeLocates:
    """Ascending inserts nest model nodes down the right edge; a key above
    a node's last key passes it with one compare and no window bisect."""

    def test_appends_and_recent_reads_bisect_only_where_the_key_is(self, monkeypatch):
        index = LearnedIndex.build([(0, 0)], TINY)
        for k in range(1, 2_000):
            index.insert(k, k)
            edge, node = [], index.root
            while isinstance(node, ModelNode):
                edge.append(node)
                node = node.children[-1]
            if len(edge) >= 3:
                break
        assert len(edge) >= 3  # the root and two nested model nodes
        calls, real = [], models_mod.bisect_left

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(models_mod, "bisect_left", counting)
        _, _, child = index.seek(k + 1)
        assert child is not FOUND and calls == []
        deepest = edge[-1]
        key = deepest.keys[len(deepest.keys) // 2]
        assert index.search(key) == key
        assert len(calls) == 1 and calls[0][0] is deepest.keys


class TestCompaction:
    """Subtree compaction keeps model-node depth O(log n) under any order."""

    def test_deep_append_stays_shallow(self):
        # without compaction every retrain nests one node deeper: 20k
        # ascending keys at this config made a chain about 2.5k nodes deep
        n = 20_000
        index = LearnedIndex.build([(0, 0)], TINY)
        oracle = SequentialOracle.from_pairs([(0, 0)])
        for k in range(1, n + 1):
            assert index.insert(k, k) is True
            oracle.insert(k, k)
        depth = max(d for _, d in model_nodes(index))
        assert depth <= 2 + math.log2(n)
        assert index.range(0, KEY_MAX) == oracle.range(0, KEY_MAX)
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == oracle.live_map()

    def test_every_node_keeps_the_eps_bound(self):
        # cubes bend too fast for one line over a compacted node's keys:
        # a single fitted line would miss the bound by over tenfold
        index = LearnedIndex.build(with_room([], 4_096), TINY)
        for k in range(1, 3_000):
            index.insert(k ** 3, k)
        rebuilt = [node for node, depth in model_nodes(index) if depth > 1]
        assert max(seg.model.eps for node in rebuilt
                   for seg in node.segments) <= TINY.eps_target
        assert any(len(node.segments) > 1 for node in rebuilt)
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == {k ** 3: k for k in range(1, 3_000)} | dict(
            with_room([], 4_096))

    def test_racing_ascending_inserts_lose_no_key_to_compaction(self):
        # eight threads append interleaved ascending keys, so retrains,
        # compactions and inserts into the subtree being frozen overlap
        hook_rnd = random.Random(17)
        lost = [0]
        old_interval = sys.getswitchinterval()
        for trial in range(20):
            index = LearnedIndex.build([(0, 0)], TINY)
            compactions = []
            index.transition_log = lambda parent, slot, old, new: (
                compactions.append(new) if isinstance(old, ModelNode) else None)
            real_install = index._install

            def install(parent, slot, expected, new, *clocked):
                ok = real_install(parent, slot, expected, new, *clocked)
                if not ok and isinstance(expected, ModelNode):
                    lost[0] += 1  # a helper lost the compaction install CAS
                return ok

            index._install = install
            shares = [list(range(1 + t, 2_401, 8)) for t in range(8)]
            results = [None] * len(shares)
            barrier = threading.Barrier(len(shares))

            def run(j):
                barrier.wait(10)
                results[j] = [index.insert(k, k) for k in shares[j]]

            threads = [threading.Thread(target=run, args=(j,)) for j in range(len(shares))]
            sys.setswitchinterval(1e-5)
            set_cas_hook(lambda c, ok: time.sleep(1e-5) if hook_rnd.random() < 0.02 else None)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                set_cas_hook(None)
                sys.setswitchinterval(old_interval)
            assert not any(t.is_alive() for t in threads)
            assert all(r == [True] * len(s) for r, s in zip(results, shares))
            assert compactions, f"trial {trial}: no compaction installed"
            report = audit_structure(index)
            assert report.ok, report.findings[:3]
            assert report.live_map() == {k: k for k in range(2_401)}
        assert lost[0] > 0  # some helper lost a compaction install

    def test_racing_deletes_land_through_retrains_and_compactions(self, monkeypatch):
        # four threads delete preloaded keys while four insert new keys
        # between them, so deletes meet bins and subtrees being frozen,
        # help replace them and land in the replacement: no delete may be
        # lost to a retrain.  The preload spans every root slot from the
        # start, so bins all over the key range fill and freeze while the
        # deletes run, not only the last bin once the inserters reach it.
        hook_rnd = random.Random(18)
        met_freeze = [0]
        real_delete_bin = index_mod.delete_bin
        real_write_version = index_mod.write_version

        def delete_bin(bin_, key, clock):
            res = real_delete_bin(bin_, key, clock)
            if res is UNDER_MAKE_MODEL:
                met_freeze[0] += 1
            return res

        def write_version(owner, *args):  # a model node's key
            res = real_write_version(owner, *args)
            if res is None and owner.frozen is not None:
                met_freeze[0] += 1
            return res

        monkeypatch.setattr(index_mod, "delete_bin", delete_bin)
        monkeypatch.setattr(index_mod, "write_version", write_version)
        old_interval = sys.getswitchinterval()
        for trial in range(20):
            index = LearnedIndex.build([(k, k) for k in range(0, 1_601, 64)], TINY)
            for k in range(2, 1_601, 2):
                if k % 64:
                    index.insert(k, k)
            deletes = [list(range(2 + 2 * t, 1_601, 8)) for t in range(4)]
            inserts = [list(range(1 + 2 * t, 1_601, 8)) for t in range(4)]
            jobs = [(index.delete, share) for share in deletes]
            jobs += [(lambda k: index.insert(k, k), share) for share in inserts]
            results = [None] * len(jobs)
            barrier = threading.Barrier(len(jobs))

            def run(j):
                op, share = jobs[j]
                barrier.wait(10)
                results[j] = [op(k) for k in share]

            threads = [threading.Thread(target=run, args=(j,)) for j in range(len(jobs))]
            sys.setswitchinterval(1e-5)
            set_cas_hook(lambda c, ok: time.sleep(1e-5) if hook_rnd.random() < 0.1 else None)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                set_cas_hook(None)
                sys.setswitchinterval(old_interval)
            assert not any(t.is_alive() for t in threads)
            assert all(r == [True] * len(share) for r, (_, share) in zip(results, jobs))
            report = audit_structure(index)
            assert report.ok, report.findings[:3]
            want = {0: 0} | {k: k for share in inserts for k in share}
            assert report.live_map() == want, f"trial {trial}"
            assert index.range(0, KEY_MAX) == sorted(want.items())
            for share in deletes:
                assert all(index.search(k) is None for k in share)
        assert met_freeze[0] > 0  # some delete met a freeze and helped

    def test_paused_scan_reads_its_snapshot_across_a_compaction(self, monkeypatch):
        # a scan pauses at the first bin inside the root's nested subtree;
        # meanwhile keys after that bin are overwritten, inserted and
        # deleted, and the whole subtree is compacted.  The rest of the scan
        # reads frozen nodes and must still return the state at its time.
        index = LearnedIndex.build(with_room([(0, 0)]), TINY)
        oracle = SequentialOracle.from_pairs(with_room([(0, 0)]))
        for k in list(range(2, 400, 2)) + [3, 151, 301]:
            index.insert(k, k)
            oracle.insert(k, k)
        node = index.root.children[1]
        assert isinstance(node, ModelNode)
        assert any(d > 2 for _, d in model_nodes(index))  # nested below node

        def compact():
            index.help_compact(index.root, 1, node)
            assert index.root.children[1] is not node

        self._scan_paused_across(monkeypatch, index, oracle, compact)

    def test_paused_scan_reads_its_snapshot_across_a_root_compaction(self, monkeypatch):
        # the same, but the compaction replaces the root: the rest of the
        # scan reads the frozen old root and its subtree
        index = LearnedIndex.build([(0, 0)], TINY)
        oracle = SequentialOracle.from_pairs([(0, 0)])
        for k in list(range(2, 400, 2)) + [3, 151, 301]:
            index.insert(k, k)
            oracle.insert(k, k)
        root = index.root
        assert any(d > 2 for _, d in model_nodes(index))  # nested below the root

        def compact():
            index.help_compact(index.header, 0, root)
            assert index.root is not root and root.frozen == (index.header, 0, root.keys)

        self._scan_paused_across(monkeypatch, index, oracle, compact)

    def _scan_paused_across(self, monkeypatch, index, oracle, compact):
        """Pause a scan of [0, 1000] at its first bin, write keys after it,
        run ``compact``, and check the scan returns the state at its time."""
        expected = oracle.range(0, 1000)
        paused, go = threading.Event(), threading.Event()
        real_scan_bin = rangescan.scan_bin

        def paused_scan_bin(*args):
            if not paused.is_set():
                paused.set()
                assert go.wait(10)
            return real_scan_bin(*args)

        monkeypatch.setattr(rangescan, "scan_bin", paused_scan_bin)
        got = []
        scanner = threading.Thread(target=lambda: got.extend(index.range(0, 1000)))
        scanner.start()
        assert paused.wait(10)
        assert index.insert(398, -1) is True      # the last key, in the deepest node
        assert index.insert(299, 299) is True     # a fresh key after the pause point
        assert index.delete(150) is True
        oracle.insert(398, -1)
        oracle.insert(299, 299)
        oracle.delete(150)
        compact()
        go.set()
        scanner.join(timeout=10)
        assert not scanner.is_alive()
        assert got == expected
        assert index.range(0, 1000) == oracle.range(0, 1000)
        report = audit_structure(index)
        assert report.ok, report.findings[:3]

    def test_ascending_inserts_replace_the_root(self, gc_state):
        # a 1k-key build, then ascending inserts: once the nodes and the bin
        # on the last slot's path hold as many keys as the root, a retrain's
        # top is the root, and its job names the header's slot
        gc.disable()
        gc.collect()
        n = 9_000
        index = LearnedIndex.build([(k, k) for k in range(1_000)])
        first = index.root
        header = index.header  # the log must not hold the index: no cycle
        roots = []
        index.transition_log = lambda parent, slot, old, new: (
            roots.append((slot, old, new)) if parent is header else None)
        for k in range(1_000, n):
            assert index.insert(k, k) is True
        assert roots and roots[0][1] is first
        assert index.root is roots[-1][2] is not first
        for slot, old, new in roots:
            assert slot == 0 and isinstance(new, ModelNode)
            job = old.frozen
            assert job == (header, 0, old.keys) and job[2] is old.keys
        depth = max(d for _, d in model_nodes(index))
        assert depth <= 2 + math.log2(n)
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == {k: k for k in range(n)}
        index.transition_log = None
        del roots, first, job, old, new, report
        assert gc.collect() == 0  # every replaced root was already freed
        del index
        assert gc.collect() == 0

    def test_the_index_holds_no_reference_cycle(self, gc_state):
        # build pauses the cyclic collector, and help_compact drops replaced
        # subtrees, on the promise that reference counting frees everything
        gc.disable()
        gc.collect()
        kinds = Counter()
        index = LearnedIndex.build(with_room([(0, 0)]), TINY)
        index.transition_log = lambda parent, slot, old, new: kinds.update(
            [(type(old).__name__, type(new).__name__)])
        for k in list(range(2, 400, 2)) + [3, 151, 301]:
            index.insert(k, k)
        assert index.range(0, 1000)[:3] == [(0, 0), (2, 2), (3, 3)]
        assert index.insert(398, -1) is True
        assert index.delete(150) is True
        node = index.root.children[1]
        index.help_compact(index.root, 1, node)
        assert index.root.children[1] is not node
        assert len(index.range(0, 1000)) == 202
        assert set(kinds) == {("NoneType", "OneLevelBin"), ("OneLevelBin", "ModelNode"),
                              ("ModelNode", "ModelNode")}
        del node
        assert gc.collect() == 0  # every replaced structure was already freed
        del index
        assert gc.collect() == 0

    def test_no_insert_installs_more_than_one_model_node(self):
        # a retrain picks its top before it builds, so it never fits a node
        # that its own call then compacts away
        index = LearnedIndex.build([(0, 0)], TINY)
        installs = []
        index.transition_log = lambda parent, slot, old, new: installs.append(
            (type(old).__name__, type(new).__name__))
        kinds = Counter()
        for k in range(1, 2_001):
            installs.clear()
            assert index.insert(k, k) is True
            nodes = [step for step in installs if step[1] == "ModelNode"]
            assert len(nodes) <= 1, (k, installs)
            kinds.update(nodes)
        assert set(kinds) == {("OneLevelBin", "ModelNode"), ("ModelNode", "ModelNode")}
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == {k: k for k in range(2_001)}

    def test_compaction_freezes_each_node_once_not_each_slot(self):
        # the walk freezes k model nodes and their m bins, one step each,
        # and installs once, however many empty slots and links there are
        index = LearnedIndex.build(with_room([(0, 0)]), TINY)
        for k in list(range(2, 400, 2)) + [3, 151, 301]:
            index.insert(k, k)
        node = index.root.children[1]
        nodes = bins = empty = 0
        stack = [node]
        while stack:
            n = stack.pop()
            nodes += 1
            for child in n.children:
                if child is EMPTY:
                    empty += 1
                elif isinstance(child, ModelNode):
                    stack.append(child)
                else:
                    bins += 1
        assert nodes > 1 and empty > 0 and bins > 0
        steps = []
        set_cas_hook(lambda cell, ok: steps.append(ok))
        try:
            index.help_compact(index.root, 1, node)
        finally:
            set_cas_hook(None)
        assert len(steps) == nodes + bins + 1
        assert all(steps)
        assert index.root.children[1] is not node
        report = audit_structure(index)
        assert report.ok, report.findings[:3]

    def test_insert_into_a_frozen_node_helps_the_compaction(self, monkeypatch):
        # a compaction pauses at its first bin, after it froze the top node;
        # an insert routed to an empty slot of that node loses its install,
        # finishes the compaction itself, and lands in the result
        index = LearnedIndex.build(with_room([(0, 0)]), TINY)
        oracle = SequentialOracle.from_pairs(with_room([(0, 0)]))
        for k in list(range(2, 400, 2)) + [3, 151, 301]:
            index.insert(k, k)
            oracle.insert(k, k)
        node = index.root.children[1]
        assert isinstance(node, ModelNode)
        slot = next(i for i in range(1, len(node.keys))
                    if node.children[i] is EMPTY
                    and node.keys[i] - node.keys[i - 1] > 1)
        key = node.keys[slot - 1] + 1
        assert index.seek(key) == (node, slot, EMPTY)
        paused, go = threading.Event(), threading.Event()
        real_collect = index_mod.collect_frozen

        def collect_frozen(bin_):
            if threading.current_thread() is compactor and not paused.is_set():
                paused.set()
                go.wait(10)
            return real_collect(bin_)

        monkeypatch.setattr(index_mod, "collect_frozen", collect_frozen)
        compactor = threading.Thread(target=index.help_compact, args=(index.root, 1, node))
        compactor.start()
        try:
            assert paused.wait(10)
            assert node.frozen is not None
            lost = []
            real_install = index._install

            def install(parent, slot, expected, new, *clocked):
                ok = real_install(parent, slot, expected, new, *clocked)
                if not ok:
                    lost.append((parent, slot, expected))
                return ok

            index._install = install
            assert index.insert(key, key) is True
            oracle.insert(key, key)
            assert (node, slot, EMPTY) in lost
            assert index.root.children[1] is not node  # helped to its end
        finally:
            go.set()
            compactor.join(timeout=10)
        assert not compactor.is_alive()
        assert index.search(key) == key
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == oracle.live_map()

    def test_a_splice_bounced_by_a_compaction_helps_it_and_lands(self, monkeypatch):
        # a compaction pauses in its first collect, after it froze the top
        # node and the bin in the top's first slot; an insert of a new key
        # routed to that bin bounces off the frozen bin, finishes the
        # compaction itself, and lands in the result, building nothing for
        # the bin and losing no install on it; once with keys 1..5 in the
        # bin, once with keys 1..3
        for low in (5, 3):
            with monkeypatch.context() as mp:
                self._bounce_off_a_paused_compaction(mp, low)

    def _bounce_off_a_paused_compaction(self, monkeypatch, low):
        index = LearnedIndex.build(with_room([(0, 0)]), TINY)
        oracle = SequentialOracle.from_pairs(with_room([(0, 0)]))
        for k in list(range(10, 4_000, 10)) + list(range(1, low + 1)):
            index.insert(k, k)
            oracle.insert(k, k)
        node = index.root.children[1]
        assert isinstance(node, ModelNode)
        parent, slot, bin_ = index.seek(6)
        assert (parent, slot) == (node, 0)
        assert isinstance(bin_, OneLevelBin) and bin_.items[:low] == list(range(1, low + 1))
        paused, go = threading.Event(), threading.Event()
        real_collect = index_mod.collect_frozen

        def collect_frozen(bin_):
            if threading.current_thread() is compactor and not paused.is_set():
                paused.set()
                go.wait(10)
            return real_collect(bin_)

        monkeypatch.setattr(index_mod, "collect_frozen", collect_frozen)
        bounced = []
        real_insert_bin = index_mod.insert_bin

        def insert_bin(b, key, value, clock):
            res = real_insert_bin(b, key, value, clock)
            if res is UNDER_MAKE_MODEL:
                bounced.append(b)
            return res

        monkeypatch.setattr(index_mod, "insert_bin", insert_bin)
        builds = []  # (builder, key count) of each build by the inserting thread
        inserter = threading.current_thread()
        real_segment_root = index_mod.segment_root

        def segment_root(keys, *args):
            if threading.current_thread() is inserter:
                builds.append(("segment_root", len(keys)))
            return real_segment_root(keys, *args)

        monkeypatch.setattr(index_mod, "segment_root", segment_root)
        lost = []
        real_install = index._install

        def install(parent, slot, expected, new, *clocked):
            ok = real_install(parent, slot, expected, new, *clocked)
            if not ok:
                lost.append(expected)
            return ok

        index._install = install
        compactor = threading.Thread(target=index.help_compact, args=(index.root, 1, node))
        compactor.start()
        try:
            assert paused.wait(10)
            assert node.frozen is not None and bin_.frozen is not None
            assert index.insert(6, 6) is True
            oracle.insert(6, 6)
            assert bounced == [bin_]
            compacted = index.root.children[1]
            assert compacted is not node  # helped to its end
            # the one build is the compaction's fit, over every key but the
            # root's and the bounced 6: 399 + low keys
            assert builds == [("segment_root", len(compacted.keys))]
            assert len(compacted.keys) == len(oracle.live_map()) - len(index.root.keys) - 1
        finally:
            go.set()
            compactor.join(timeout=10)
        assert not compactor.is_alive()
        assert not [e for e in lost if isinstance(e, OneLevelBin)]
        assert index.search(6) == 6
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == oracle.live_map()

    @staticmethod
    def _paused_compaction(monkeypatch, owner, name, write):
        """Pause a compaction of the root's nested node in its first call of
        ``owner.name`` and run ``write(index, node, oracle)`` meanwhile;
        returns the index, the oracle and the node once the compaction
        has finished."""
        index = LearnedIndex.build(with_room([(0, 0)]), TINY)
        oracle = SequentialOracle.from_pairs(with_room([(0, 0)]))
        for k in list(range(10, 4_000, 10)) + [1, 2, 3]:
            index.insert(k, k)
            oracle.insert(k, k)
        node = index.root.children[1]
        assert isinstance(node, ModelNode) and isinstance(node.children[0], OneLevelBin)
        paused, go = threading.Event(), threading.Event()
        real = getattr(owner, name)

        def pausing(*args):
            if threading.current_thread() is compactor and not paused.is_set():
                paused.set()
                go.wait(10)
            return real(*args)

        monkeypatch.setattr(owner, name, pausing)
        compactor = threading.Thread(target=index.help_compact, args=(index.root, 1, node))
        compactor.start()
        try:
            assert paused.wait(10)
            write(index, node, oracle)
        finally:
            go.set()
            compactor.join(timeout=10)
        assert not compactor.is_alive()
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
        assert report.live_map() == oracle.live_map()
        return index, oracle, node

    @pytest.mark.parametrize("op", ["overwrite", "delete"])
    @pytest.mark.parametrize("where", ["node key", "bin key"])
    def test_a_write_between_the_collect_and_the_install_is_not_lost(
            self, monkeypatch, where, op):
        # a compaction pauses in its fit, after it froze and collected the
        # whole subtree; a write of a collected key meets the freeze, helps
        # finish the compaction and lands in the result, which the paused
        # compaction then does not replace
        def write(index, node, oracle):
            key = node.keys[5] if where == "node key" else 2
            assert node.frozen is not None and node.children[0].frozen is not None
            if op == "overwrite":
                assert index.insert(key, -key) is True
                oracle.insert(key, -key)
            else:
                assert index.delete(key) is True
                oracle.delete(key)
            assert index.root.children[1] is not node  # it helped to the end
            assert index.search(key) == oracle.search(key)
            written.append((key, index.root.children[1]))

        written = []
        index, oracle, node = self._paused_compaction(
            monkeypatch, index_mod, "segment_root", write)
        (key, compacted), = written
        assert index.root.children[1] is compacted
        assert index.search(key) == oracle.search(key)

    @pytest.mark.parametrize("owner, name, where", [
        (index_mod, "freeze", "node key"), (index_mod, "freeze_bin", "bin key")],
        ids=["top node", "first bin"])
    def test_a_write_before_the_freeze_is_collected(self, monkeypatch, owner, name, where):
        # a compaction pauses just before it freezes the top node, or the
        # bin in the top's first slot: nothing of it is frozen or collected
        # yet, so an overwrite there lands in place, and the compaction,
        # which collects only what it froze, carries it over
        def write(index, node, oracle):
            key = node.keys[5] if where == "node key" else 2
            if where == "node key":
                assert node.frozen is None
            else:
                assert node.frozen is not None and node.children[0].frozen is None
            assert index.insert(key, -key) is True
            oracle.insert(key, -key)
            assert index.root.children[1] is node  # nothing to help yet
            written.append(key)

        written = []
        index, oracle, node = self._paused_compaction(monkeypatch, owner, name, write)
        assert index.root.children[1] is not node
        assert index.search(written[0]) == -written[0]

    def test_a_help_after_the_install_builds_nothing(self, monkeypatch):
        # a helper that reaches help_compact once the top's replacement is
        # installed, under a parent that is not frozen, finds its top gone
        # and builds nothing: once for a model node, once for a retrained bin
        index = LearnedIndex.build(with_room([(0, 0)]), TINY)
        for k in list(range(2, 400, 2)) + [3, 151, 301]:
            index.insert(k, k)
        node = index.root.children[1]
        assert isinstance(node, ModelNode)
        index.help_compact(index.root, 1, node)
        compacted = index.root.children[1]
        assert compacted is not node
        index.insert(1, 1)
        parent, slot, olb = index.seek(1)
        assert isinstance(olb, OneLevelBin)
        freeze_bin(olb)
        index.help_compact(parent, slot, olb)
        retrained = parent.children[slot]
        assert isinstance(retrained, ModelNode)
        builds = []
        real_segment_root = index_mod.segment_root

        def segment_root(*args):
            builds.append("segment_root")
            return real_segment_root(*args)

        monkeypatch.setattr(index_mod, "segment_root", segment_root)
        index.help_compact(index.root, 1, node)
        index.help_compact(parent, slot, olb)
        assert builds == []
        assert index.root.children[1] is compacted
        assert parent.children[slot] is retrained
        report = audit_structure(index)
        assert report.ok, report.findings[:3]

    def test_an_install_during_the_collect_stops_the_build(self, monkeypatch):
        # a helper that passed the slot check on entry, and whose top is
        # replaced while it collects, builds nothing once its collect ends:
        # the replacement lands from inside its first collect; once for a
        # model node and once for a bin
        index = LearnedIndex.build(with_room([(0, 0)]), TINY)
        for k in list(range(2, 400, 2)) + [3, 151, 301]:
            index.insert(k, k)
        real_collect = index_mod.collect_frozen
        racing, builds, installs = [], [], []

        def collect_frozen(bin_):
            if racing:
                index.help_compact(*racing.pop())  # the racing helper installs
                builds.clear()
            return real_collect(bin_)

        monkeypatch.setattr(index_mod, "collect_frozen", collect_frozen)
        real_segment_root = index_mod.segment_root

        def segment_root(*args):
            builds.append("segment_root")
            return real_segment_root(*args)

        monkeypatch.setattr(index_mod, "segment_root", segment_root)
        index.transition_log = lambda parent, slot, old, new: installs.append(new)

        def race(parent, slot, top):
            racing.append((parent, slot, top))
            installs.clear()
            index.help_compact(parent, slot, top)
            assert racing == [] and builds == []
            assert installs == [parent.children[slot]]
            return installs[0]

        node = index.root.children[1]
        assert isinstance(race(index.root, 1, node), ModelNode)
        index.insert(1, 1)
        parent, slot, olb = index.seek(1)
        assert isinstance(olb, OneLevelBin)
        freeze_bin(olb)
        assert isinstance(race(parent, slot, olb), ModelNode)
        report = audit_structure(index)
        assert report.ok, report.findings[:3]

    def test_a_stale_frozen_node_is_not_rebuilt(self, monkeypatch):
        # once a compaction is installed, the nodes and bins it froze are
        # stale; helping one of them finds the job done and builds nothing
        index = LearnedIndex.build(with_room([(0, 0)]), TINY)
        for k in list(range(2, 400, 2)) + [3, 151, 301]:
            index.insert(k, k)
        node = index.root.children[1]
        index.help_compact(index.root, 1, node)
        compacted = index.root.children[1]
        assert compacted is not node and node.frozen is not None
        stale = [(i, child) for i, child in enumerate(node.children)
                 if child is not EMPTY]
        assert any(isinstance(child, ModelNode) for _, child in stale)
        builds = []
        for name in ("segment_root", "collect_frozen"):
            def build(*args, _name=name, _real=getattr(index_mod, name)):
                builds.append(_name)
                return _real(*args)

            monkeypatch.setattr(index_mod, name, build)
        steps = []
        set_cas_hook(lambda cell, ok: steps.append(ok))
        try:
            for i, child in stale:
                index.help_compact(node, i, child)
        finally:
            set_cas_hook(None)
        assert builds == [] and steps == []
        assert index.root.children[1] is compacted
        assert [(i, node.children[i]) for i, _ in stale] == stale
        report = audit_structure(index)
        assert report.ok, report.findings[:3]
