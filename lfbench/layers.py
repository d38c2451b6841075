"""Per-layer measurement: run-time wrappers, a structural snapshot, probes.

The layers are the modules on the op path: ``core``, ``models``, ``bins``,
``index`` and ``rangescan``.  Nothing in the program is edited: the tracer
swaps timing wrappers in for the layer entry points that ``index`` calls,
counts CAS steps through ``set_cas_hook`` and transitions through
``transition_log``, and puts everything back afterwards.  The snapshot and
the probes read the post-run index from outside.

Timed spans are inclusive (a seek contains its locates, and the wrappers'
own cost), which is why the end-to-end numbers come from untraced passes.
All times carry the driver's host-speed correction: spans by the traced
passes' mean factor, probes per round.
A mean over zero calls is reported as 0, with the call count beside it.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from statistics import median

import lfindex.index as index_mod
from lfindex import LearnedIndex, fit_linear, segment_root, set_cas_hook
from lfindex.bins import OneLevelBin, TwoLevelBin, search_bin
from lfindex.core import AtomicRef, read_value_at
from lfindex.index import ModelNode

from drive import host_factor

# (owner, attribute, span name): the calls each layer receives from index
_SPANS = (
    (index_mod, "search_root", "models.root_locate"),
    (index_mod, "search_nonroot", "models.nonroot_locate"),
    (index_mod, "search_bin", "bins.search_bin"),
    (index_mod, "insert_bin", "bins.insert_bin"),
    (index_mod, "delete_bin", "bins.delete_bin"),
    (index_mod, "freeze_bin", "bins.freeze_collect"),
    (index_mod, "collect_frozen", "bins.freeze_collect"),
    (index_mod, "olb_to_tlb", "bins.freeze_collect"),
    (LearnedIndex, "seek", "index.seek"),
    (LearnedIndex, "help_make_model", "index.help_make_model"),
)

PROBE_KEYS = 20_000   # query keys the probes replay, in stream order
PROBE_ROUNDS = 5      # probe timings are medians over this many rounds
FIT_SLICE = 1024      # keys per fit_linear probe: a full two-level bin


class Tracer:
    """Call counts and inclusive nanoseconds per span, plus event counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.transitions: Counter = Counter()
        self.cas = 0
        self.range_pairs = 0

    def _timed(self, name, fn):
        calls, ns, clock = self.calls, self.ns, time.perf_counter_ns

        def span(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                ns[name] += clock() - t0
                calls[name] += 1
        return span

    def _ranges(self, fn):
        timed = self._timed("rangescan.range", fn)

        def span(*args):
            out = timed(*args)
            self.range_pairs += len(out)
            return out
        return span

    def _on_cas(self, cell, ok):
        self.cas += 1

    def _on_transition(self, parent, slot, old, new):
        if old is None:
            self.transitions["new_bin"] += 1
        elif isinstance(old, OneLevelBin):
            self.transitions["olb_to_tlb"] += 1
        elif isinstance(old, TwoLevelBin):
            self.transitions["tlb_to_node"] += 1

    @contextmanager
    def installed(self, index):
        """Wrap the layer entry points for the lifetime of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in _SPANS]
        saved.append((index_mod, "range_search", index_mod.range_search))
        try:
            for (owner, attr, name), (_, _, fn) in zip(_SPANS, saved):
                setattr(owner, attr, self._timed(name, fn))
            index_mod.range_search = self._ranges(saved[-1][2])
            set_cas_hook(self._on_cas)
            index.transition_log = self._on_transition
            yield
        finally:
            index.transition_log = None
            set_cas_hook(None)
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def mean_ns(self, name: str, factor: float) -> float:
        return factor * self.ns[name] / self.calls[name] if self.calls[name] else 0.0


def traced_metrics(t: Tracer, ops: int, passes: int, examined: int,
                   factor: float) -> dict:
    """Per-layer metrics from a tracer that saw ``passes`` runs of ``ops`` ops;
    span times are scaled by the host-speed ``factor``."""
    seeks = t.calls["index.seek"]
    helps = t.calls["index.help_make_model"]
    ranges = t.calls["rangescan.range"]
    pairs = t.range_pairs
    locates = t.calls["models.root_locate"] + t.calls["models.nonroot_locate"]

    def calls(name):
        return f"{t.calls[name] // passes} calls per pass"

    return {
        "index.seek_ns": (t.mean_ns("index.seek", factor), "ns", calls("index.seek")),
        "index.seek_hops_mean": (locates / seeks if seeks else 0.0, "count"),
        "index.seeks_per_op": (seeks / (ops * passes), "count"),
        "index.help_make_model_us": (t.mean_ns("index.help_make_model", factor) / 1e3, "us",
                                     calls("index.help_make_model")),
        "index.transitions.new_bin": (t.transitions["new_bin"] // passes, "count"),
        "index.transitions.olb_to_tlb": (t.transitions["olb_to_tlb"] // passes, "count"),
        "index.transitions.tlb_to_node": (t.transitions["tlb_to_node"] // passes, "count"),
        "bins.freeze_collect_us": (
            factor * t.ns["bins.freeze_collect"] / helps / 1e3 if helps else 0.0, "us"),
        "bins.search_bin_ns": (t.mean_ns("bins.search_bin", factor), "ns", calls("bins.search_bin")),
        "bins.insert_bin_ns": (t.mean_ns("bins.insert_bin", factor), "ns", calls("bins.insert_bin")),
        "bins.delete_bin_ns": (t.mean_ns("bins.delete_bin", factor), "ns", calls("bins.delete_bin")),
        "core.cas_per_op": (t.cas / (ops * passes), "count"),
        "rangescan.ns_per_pair": (factor * t.ns["rangescan.range"] / pairs if pairs else 0.0, "ns",
                                  f"{pairs // passes} pairs per pass"),
        "rangescan.pairs_per_range": (pairs / ranges if ranges else 0.0, "count"),
        "rangescan.keys_examined_per_pair": (
            examined * passes / pairs if pairs else 0.0, "count"),
    }


def _children(node):
    for ref in node.children:
        child = ref.load()
        if child is not None:
            yield child


def _lists(bin_):
    return (bin_,) if bin_.is_one_level else bin_.children


def snapshot(index) -> dict:
    """Structure counts from a walk over nodes, bins and version chains.

    Depth counts model-node levels on the deepest path (the root is 1).
    A tombstoned key is one whose latest version is the Absent payload."""
    depth_max = model_nodes = olbs = tlbs = lists = 0
    model_keys = bin_keys = versions = chain_max = tombstones = 0

    def chain(head_ref):
        nonlocal versions, chain_max, tombstones
        ver = head_ref.load()
        if ver.val is None:
            tombstones += 1
        n = 0
        while ver is not None:
            n += 1
            ver = ver.vnext
        versions += n
        chain_max = max(chain_max, n)

    stack = [(index.root, 1)]
    while stack:
        node, depth = stack.pop()
        model_nodes += 1
        depth_max = max(depth_max, depth)
        model_keys += len(node.keys)
        for head in node.versions:
            chain(head)
        for child in _children(node):
            if isinstance(child, ModelNode):
                stack.append((child, depth + 1))
                continue
            if child.is_one_level:
                olbs += 1
            else:
                tlbs += 1
            for olb in _lists(child):
                lists += 1
                kn = olb.head.load().target
                while kn is not None:
                    bin_keys += 1
                    chain(kn.version)
                    kn = kn.next.load().target
    keys = model_keys + bin_keys
    return {
        "index.depth_max": (depth_max, "count"),
        "index.model_nodes": (model_nodes, "count"),
        "bins.olb_count": (olbs, "count"),
        "bins.tlb_count": (tlbs, "count"),
        "bins.keys_in_bins_frac": (bin_keys / keys if keys else 0.0, "frac"),
        "bins.list_len_mean": (bin_keys / lists if lists else 0.0, "count"),
        "core.chain_len_mean": (versions / keys if keys else 0.0, "count"),
        "core.chain_len_max": (chain_max, "count"),
        "core.tombstone_keys_frac": (tombstones / keys if keys else 0.0, "frac"),
    }


def _corrected_s(fn, *args) -> float:
    """Corrected seconds of one ``fn(*args)`` call."""
    before = host_factor()
    t0 = time.perf_counter()
    fn(*args)
    dt = time.perf_counter() - t0
    return dt * (before + host_factor()) / 2


def _per_call_ns(fn, calls, rounds=PROBE_ROUNDS) -> float:
    """Median over rounds of corrected ns per ``fn(*args)`` across ``calls``."""
    if not calls:
        return 0.0

    def one_round():
        for args in calls:
            fn(*args)
    return median(_corrected_s(one_round) for _ in range(rounds)) * 1e9 / len(calls)


def _paths(index, keys):
    """(non-root nodes located, version-chain heads reached) for ``keys``."""
    nonroot, heads = [], {}
    for k in keys:
        node = index.root
        while True:
            ix, found = node.locate(k)
            if found:
                heads[k] = node.versions[ix]
                break
            child = node.children[ix + 1].load()
            if isinstance(child, ModelNode):
                nonroot.append((child, k))
                node = child
                continue
            if child is not None:
                kn = search_bin(child, k)
                if kn is not None:
                    heads[k] = kn.version
            break
    return nonroot, list(heads.values())


def _versions_read_at_zero(head_ref) -> int:
    """Versions ``read_value_at(head, 0)`` visits: the newer ones, then one more."""
    n = 0
    ver = head_ref.load()
    while ver is not None:
        n += 1
        if ver.ts <= 0:
            break
        ver = ver.vnext
    return n


def probes(index, probe_keys: list) -> dict:
    """Layer timings on the post-run index with the workload's own keys.

    Learned routing is timed beside its plain baseline, ``bisect_left`` over
    the same root array with the same keys; fits and segmentation run over
    the bulk-loaded root keys."""
    root = index.root
    rkeys = root.keys
    nonroot, heads = _paths(index, probe_keys)
    nonroot = nonroot[:PROBE_KEYS]  # deep chains would multiply the probe's time
    walked = sum(_versions_read_at_zero(h) for h in heads)
    read_ns = _per_call_ns(read_value_at, [(h, 0, index.clock) for h in heads])
    step = max(1, len(rkeys) // 64)
    slices = [(rkeys[i:i + FIT_SLICE],)
              for i in range(0, max(1, len(rkeys) - FIT_SLICE + 1), step)][:64]
    fit_keys = sum(len(s) for s, in slices)
    seg_s = []
    while len(seg_s) < 5 and sum(seg_s) < 0.5:
        seg_s.append(_corrected_s(segment_root, rkeys, index.config.eps_target))
    cell = AtomicRef(root)
    return {
        "models.root_locate_ns": (
            _per_call_ns(root.locate, [(k,) for k in probe_keys]), "ns"),
        "models.root_bisect_ns": (
            _per_call_ns(bisect_left, [(rkeys, k) for k in probe_keys]), "ns"),
        "models.nonroot_locate_ns": (_per_call_ns(ModelNode.locate, nonroot), "ns",
                                     f"{len(nonroot)} locates timed"),
        "models.fit_linear_us_per_key": (
            _per_call_ns(fit_linear, slices) * len(slices) / fit_keys / 1e3, "us"),
        "models.segment_root_s": (median(seg_s), "s"),
        "models.root_segments": (len(root.segments), "count"),
        "core.cas_ns": (
            _per_call_ns(cell.compare_and_swap, [(root, root)] * 100_000), "ns"),
        "core.read_value_at_ns_per_version": (
            read_ns * len(heads) / walked if walked else 0.0, "ns"),
    }
