"""The entry points the per-layer tracer (lfbench/layers.py) wraps stay live.

The tracer times each layer by swapping a wrapper in for a name that
``index`` looks up at call time.  A refactor that stops calling one of these
names, or calls it through another reference, leaves its span at zero calls
without failing anything else; these tests catch that.  The last test runs
the benchmark's own self-test, ``lfbench/selftest.py``.
"""

import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import lfindex.index as index_mod
from lfindex.bins import search_bin
from lfindex.index import FOUND, IndexConfig, LearnedIndex
from lfindex.verify import audit_structure

LFBENCH = Path(__file__).resolve().parent.parent / "lfbench"
SMALL = IndexConfig(olb_threshold=4)

ENTRY_POINTS = [(index_mod, name) for name in (
    "search_root", "search_nonroot", "search_bin", "insert_bin", "delete_bin",
    "freeze_bin", "collect_frozen", "range_search")] + [
    (LearnedIndex, "seek"), (LearnedIndex, "help_make_model")]


def drive(index):
    """Ops that reach every layer: bin lifecycle up to a retrained node,
    descents into it, bin inserts, searches and deletes below it, a range."""
    for k in range(100, 600, 10):
        index.insert(k, k)          # new bin -> model node, compactions, depth 3
    for k in range(100, 600, 10):
        assert index.search(k) == k
    index.insert(105, 1)            # a fresh bin below the retrained node
    index.insert(106, 2)            # a splice into that bin
    assert index.search(105) == 1
    assert index.delete(106) is True
    assert index.range(0, 1000)[:3] == [(0, 0), (100, 100), (105, 1)]


def test_every_entry_point_is_called(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for owner, attr in ENTRY_POINTS:
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    drive(LearnedIndex.build([(0, 0), (1000, 1)], SMALL))
    assert [attr for _, attr in ENTRY_POINTS if counts[attr] == 0] == []


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(LFBENCH))
    yield importlib.import_module("layers")
    for name in ("layers", "drive", "workloads"):
        sys.modules.pop(name, None)


def test_benchmark_tracer_wraps_exactly_these(layers):
    # the tracer also wraps ``olb_to_tlb``, an inert name that nothing
    # calls now that a full bin retrains straight into a model node; its
    # span stays at zero calls
    spans = {(owner, attr) for owner, attr, _ in layers._SPANS}
    assert spans | {(index_mod, "range_search")} == set(ENTRY_POINTS) | {
        (index_mod, "olb_to_tlb")}


def test_structure_reads_match_the_audit_and_seek(layers):
    # the benchmark's snapshot and probe paths read model-node slots from
    # outside the package; here they must agree with the audit's walk
    # (every key it reached) and with seek (each key's home)
    index = LearnedIndex.build([(0, 0), (1000, 1)], SMALL)
    drive(index)
    report = audit_structure(index)
    assert report.ok, report.findings[:3]
    keys = sorted(report.payloads)
    nodes, bins, heads, bin_keys = set(), {}, [], 0
    for k in keys:
        node, i, child = index.seek(k)
        if child is FOUND:
            nodes.add(id(node))
            heads.append(node.versions[i])
        else:
            bins[id(child)] = child
            heads.append(search_bin(child, k).version)
            bin_keys += 1
    tombstones = sum(v is None for v in report.payloads.values())
    snap = {name: value for name, (value, _) in layers.snapshot(index).items()}
    assert snap["index.model_nodes"] == len(nodes) == 3
    assert snap["index.depth_max"] == 3
    assert (snap["bins.olb_count"], snap["bins.tlb_count"]) == (len(bins), 0)
    assert snap["bins.keys_in_bins_frac"] == bin_keys / len(keys)
    assert snap["core.tombstone_keys_frac"] == tombstones / len(keys)
    nonroot, reached = layers._paths(index, keys)
    assert [id(h) for h in reached] == [id(h) for h in heads]
    assert {id(n) for n, _ in nonroot} == nodes - {id(index.root)}


def test_benchmark_selftest_passes():
    # the benchmark's own toy-scale self-test: a change under src/ that
    # breaks the harness or its structure reads fails here, not only when
    # the benchmark is next run
    proc = subprocess.run([sys.executable, "lfbench/selftest.py"], cwd=LFBENCH.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
