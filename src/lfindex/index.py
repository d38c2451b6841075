"""The ordered map: a shallow hierarchy of model nodes fed by bins.

Structure invariants the operations below maintain:

- A slot holds its child: ``core.EMPTY``, a bin or a model node.  A model
  node's keys and model are immutable after construction; only its slots
  and its ``frozen`` word change, and a frozen node's slots never do.  A
  slot moves forward through empty -> one-level bin -> two-level bin ->
  model node, and a slot holding a model node may move to a new model
  node by a compaction install.  ``_install`` makes each move with one
  ``core.dcss``, which stores the new child unless the node is frozen;
  every child it stores is fresh, so a slot never takes back a child it
  held.
- The root sits in the one slot of the header, a keyless model node that
  nothing freezes, so a compaction replaces the root as it does any node.
- Routing: child slot i of a node covers the open interval between keys
  i-1 and i, so every key has exactly one home path.
- Retrains never move version chains: replacement structures reuse the
  per-key chain heads, so a writer holding a stale bin reference still
  lands its versions where readers of the new structure find them.
- Every node's segments are ``segment_root`` under ``eps_target``, made
  by the ``ModelNode`` constructor alone, for every node.
- The index holds no reference cycle; reference counting frees every
  replaced structure.

A full bin is frozen and rebuilt by whichever thread meets it, and one
job, ``help_compact``, makes every rebuild (split, retrain, compaction)
and installs it with one ``dcss``.  A retrain (``IndexConfig`` says
when) puts a model node in a full two-level bin's slot, so ascending
inserts would grow a chain of nested nodes; compaction bounds the depth.
A retrain is a compaction: before it builds anything it takes as its top
the highest node on the bin's path, the root included, whose on-path
descendants, the bin included, hold at least ``COMPACT_RATIO`` times its
keys, else the bin itself.  A compaction collects the top's keys and
chain heads in order, freezing each model node and bin of a top node's
subtree, and builds one node.  A frozen node's ``frozen`` word is the job
``(parent, slot, keys)`` that froze it, so any thread that meets a frozen
node can finish the job, and every helper builds the same node.

Every operation acts on the child that ``seek`` loaded; no operation reads
a child slot a second time.  ``seek`` reads through frozen nodes.  A freeze
stops splices and installs, never a chain write (the argument is in the
``bins`` docstring), so search and delete are one seek and then one read or
one write, frozen or not.  Insert is the only retry loop around seek: a
full bin, a splice that fails on a frozen bin, or a lost install sends it
back.  ``help_compact`` is the one place that helps: a rebuild whose
slot sits in a frozen node, and an install that finds its node frozen,
both finish the outermost compaction under way and build nothing of their
own, so every retry follows a step that some thread completed.
"""

from __future__ import annotations

import gc
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .core import (
    EMPTY,
    AtomicRef,
    BenchReads,
    GlobalClock,
    VersionedValue,
    check_key,
    check_pairs,
    check_payload,
    dcss,
    freeze,
    read_value_latest,
    write_value,
)
from .bins import (
    UNDER_MAKE_MODEL,
    bin_new,
    collect_frozen,
    delete_bin,
    freeze_bin,
    insert_bin,
    list_size,
    olb_to_tlb,
    search_bin,
)
from .models import (
    DEFAULT_EPS_TARGET,
    root_table,
    search_nonroot,
    search_root,
    segment_root,
)
from .rangescan import range_search


class _Found:
    __slots__ = ()

    def __repr__(self):
        return "FOUND"


#: ``seek``'s child when the key lives in the model node itself.
FOUND = _Found()

#: A node, the root included, is compacted once the model nodes and the
#: bin below it on a new node's path hold this many times its own keys.
COMPACT_RATIO = 1


@dataclass(frozen=True)
class IndexConfig:
    """The bin lifecycle: a one-level bin holding ``olb_threshold`` keys is
    split into ``tlb_fanout`` lists, and a two-level bin holding
    ``tlb_threshold`` keys, or whose list for an inserted key holds
    ``list_threshold`` keys, is retrained into a model node.  ``eps_target``
    bounds every node: every node's segments are ``segment_root`` under it.
    The sizes are taken through ``operator.index``, as keys are."""

    eps_target: float = DEFAULT_EPS_TARGET
    olb_threshold: int = 64
    tlb_fanout: int = 8
    tlb_threshold: int = 1024

    def __post_init__(self):
        for field in ("olb_threshold", "tlb_fanout", "tlb_threshold"):
            object.__setattr__(self, field, operator.index(getattr(self, field)))
        if not self.eps_target > 0:
            raise ValueError("eps_target must be positive")
        if self.olb_threshold < 1 or self.tlb_threshold < 1:
            raise ValueError("bin thresholds must be >= 1")
        if self.tlb_fanout < 2:
            raise ValueError("fanout must be >= 2")
        if self.olb_threshold >= self.tlb_threshold:
            raise ValueError("olb_threshold must be below tlb_threshold, or a "
                             "split bin would be full before its first splice")
        if 2 * self.tlb_threshold < self.tlb_fanout:
            raise ValueError("tlb_threshold must be at least half the fanout, "
                             "or every list would be full before its first key")

    @property
    def list_threshold(self) -> int:
        """Keys in one list of a two-level bin that make the bin full: twice
        the mean list of a full bin, so key order cannot make lists long."""
        return 2 * self.tlb_threshold // self.tlb_fanout


class ModelNode(BenchReads):
    """Immutable keys + piecewise model, one version chain per key, m+1
    child slots, each ``core.EMPTY`` until ``core.dcss`` stores a child in
    it, and a freeze word: None, or the compaction job that froze the node.

    The one node builder: every node's segments are ``segment_root`` under
    ``eps_target``, flattened once into ``table`` for ``search_root``.
    """

    __slots__ = ("keys", "segments", "table", "versions", "children", "frozen")

    def __init__(self, keys, versions, eps_target):
        self.keys = keys
        self.versions = versions    # list[AtomicRef] -> version chain heads
        self.children = [EMPTY] * (len(keys) + 1)  # EMPTY | bin | node
        self.segments = segment_root(keys, eps_target)
        self.table = root_table(self.segments, len(keys))
        self.frozen = None

    def locate(self, key: int) -> tuple[int, bool]:
        return search_root(self.keys, self.table, key)


class LearnedIndex:
    """Linearizable lock-free ordered map over 63-bit keys and int payloads.

    Every op takes its key, payload, width and cap through ``core``'s
    input contract (README, "Input contract")."""

    def __init__(self, root: ModelNode, clock: GlobalClock, config: IndexConfig):
        # the header's one slot holds the root: a compaction's job names it
        # as (header, 0, keys) and installs there like in any slot
        self.header = ModelNode([], [], config.eps_target)
        self.header.children[0] = root
        self.clock = clock
        self.config = config
        # test hook: called as (parent, slot, old, new) after each
        # successful child-slot transition
        self.transition_log: Optional[Callable] = None

    @property
    def root(self) -> ModelNode:
        """The model node the header's slot holds now."""
        return self.header.children[0]

    @classmethod
    def build(cls, pairs: Iterable[tuple[int, int]],
              config: IndexConfig | None = None) -> "LearnedIndex":
        """Bulk-load from sorted unique (key, payload) pairs (``core.check_pairs``).

        Every loaded version is stamped with time 0; the clock starts at 0.
        Keys are stored as ``int``, so a numpy integer key leaves no numpy
        scalar in a node's keys, a locate's arithmetic or a returned pair."""
        cfg = config or IndexConfig()
        keys, payloads = check_pairs(pairs)
        # two tracked objects per key would trigger full collections that
        # find nothing: the index holds no reference cycle (module docstring)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            versions = [AtomicRef(VersionedValue(v, 0)) for v in payloads]
        finally:
            if was_enabled:
                gc.enable()
        return cls(ModelNode(keys, versions, cfg.eps_target), GlobalClock(0), cfg)

    def seek(self, key: int) -> tuple[ModelNode, int, Any]:
        """Walk model nodes toward ``key``; returns (node, i, child).

        ``child`` is FOUND when ``key == node.keys[i]``.  Otherwise ``i`` is
        the routing child slot and ``child`` is what seek loaded there:
        ``EMPTY``, so the key is nowhere in the index right now, or a bin
        that may hold it."""
        node = self.header.children[0]
        ix, found = search_root(node.keys, node.table, key)
        while True:
            if found:
                return node, ix, FOUND
            slot = ix + 1
            child = node.children[slot]
            if child.__class__ is not ModelNode:
                return node, slot, child
            node = child
            ix, found = search_nonroot(node.keys, node.table, key)

    def insert(self, key: int, value: int) -> bool:
        """True if the map changed (new key, or new value for the key)."""
        check_payload(value)
        key = check_key(key)
        clock = self.clock
        cfg = self.config
        while True:
            node, i, child = self.seek(key)
            if child is FOUND:
                return write_value(node.versions[i], value, clock)
            if child is EMPTY:
                fresh, ver = bin_new(key, value)
                if self._install(node, i, EMPTY, fresh):
                    ver.stamp(clock)  # stamped only once published
                    return True
                continue  # lost to a concurrent first insert or a freeze; retry
            if child.is_one_level:
                full = child.size >= cfg.olb_threshold
            else:
                full = (child.size >= cfg.tlb_threshold
                        or list_size(child, key) >= cfg.list_threshold)
            if not full:
                res = insert_bin(child, key, value, clock)
                if res is not UNDER_MAKE_MODEL:
                    return res
            self.help_make_model(node, i, child)

    def delete(self, key: int) -> bool:
        """True if the key was present (its latest payload now Absent).
        One seek and at most one chain write: a frozen bin or subtree
        still takes the write (see ``bins``), so it never retries."""
        key = check_key(key)
        node, i, child = self.seek(key)
        if child is FOUND:
            return write_value(node.versions[i], None, self.clock)
        if child is EMPTY:
            return False
        return delete_bin(child, key, self.clock)

    def search(self, key: int) -> Optional[int]:
        """Latest payload, or None when absent.  Never helps, never blocks,
        never retries; its only write is a timestamp assignment on an
        unstamped head."""
        key = check_key(key)
        node, i, child = self.seek(key)
        if child is FOUND:
            return read_value_latest(node.versions[i], self.clock)
        if child is EMPTY:
            return None
        knode = search_bin(child, key)
        if knode is None:
            return None
        return read_value_latest(knode.version, self.clock)

    def range(self, key: int, width: int,
              max_results: Optional[int] = None) -> list[tuple[int, int]]:
        """Snapshot of live pairs with key <= k <= key+width (saturating),
        ascending, optionally capped at max_results pairs."""
        return range_search(self, key, width, max_results)

    def help_make_model(self, parent: ModelNode, slot: int, bin_: Any) -> None:
        """Freeze a full or frozen bin, pick the top that replaces it, and
        hand that top to ``help_compact``; build nothing here.

        The bin is frozen first, idempotently.  A one-level bin is its own
        top.  A two-level bin's top is the one the module docstring names,
        picked before anything is built, or the bin itself when its path
        was replaced or frozen since.  No retry: the caller seeks again."""
        freeze_bin(bin_)
        top = (parent, slot, bin_)
        if not bin_.is_one_level:
            # a separator is a key of child 0, so it routes to the bin's slot
            key = bin_.keys[0]
            path = []  # (parent, slot, node) for each node down to parent
            node = self.header
            while node is not parent:
                i = bisect_left(node.keys, key)
                child = node.children[i]
                if child.__class__ is not ModelNode or child.frozen is not None:
                    path = []  # replaced or frozen since: a compaction got here first
                    break
                path.append((node, i, child))
                node = child
            below = bin_.size  # final: the bin is frozen
            for step in reversed(path):
                size = len(step[2].keys)
                if below >= COMPACT_RATIO * size:
                    top = step
                below += size
        self.help_compact(*top)

    def help_compact(self, parent: ModelNode, slot: int, top: Any) -> None:
        """Replace ``top``, ``parent``'s child ``slot``: a frozen one-level
        bin by its split, a frozen two-level bin by one model node, and a
        model node, the root included, by one model node over its whole
        subtree.

        A frozen ``parent`` means a compaction holds ``top``: the job words
        lead to the outermost job, which is finished instead if its top
        node is still in its slot, and nothing is built for ``top``.  Else
        nothing is collected unless ``top`` is still in its slot, and
        nothing is built unless it still is after the collect.

        The subtree's in-order walk, with an explicit stack, freezes each
        model node as it enters it and then reads that node's slots, which
        no longer change: a nested node is walked, a bin is frozen and its
        keys and chain heads collected (deleted keys too), and each node key
        follows its left slot.  A frozen node or bin never changes, so every
        helper collects the same keys, builds the same structure, and the
        first install wins."""
        if parent.frozen is not None:
            while parent.frozen is not None:
                parent, slot, keys = parent.frozen
            top = parent.children[slot]
            if top.__class__ is not ModelNode or top.keys is not keys:
                return  # installed already
        elif parent.children[slot] is not top:
            return  # installed already
        if top.__class__ is not ModelNode:
            keys, versions = collect_frozen(top, self.clock)
        else:
            # the job names top by its keys list, so a replaced subtree
            # holds no reference back to its root: no cycle (module docstring)
            job = (parent, slot, top.keys)
            keys, versions = [], []
            stack = []  # (node, i): slot i of node is done, key i comes next
            n, i = top, 0
            freeze(n, job)
            while True:
                child = n.children[i]
                if child.__class__ is ModelNode:
                    stack.append((n, i))
                    n, i = child, 0
                    freeze(n, job)
                    continue
                if child is not EMPTY:
                    freeze_bin(child)
                    bin_keys, bin_versions = collect_frozen(child, self.clock)
                    keys += bin_keys
                    versions += bin_versions
                while i == len(n.keys) and stack:  # n's last slot is done
                    n, i = stack.pop()
                if i == len(n.keys):
                    break
                keys.append(n.keys[i])
                versions.append(n.versions[i])
                i += 1
        if parent.children[slot] is not top:
            return  # installed by a helper that raced this one's collect
        if top.__class__ is not ModelNode and top.is_one_level:
            self._install(parent, slot, top,
                          olb_to_tlb(keys, versions, self.config.tlb_fanout))
        else:
            self._install(parent, slot, top, ModelNode(keys, versions, self.config.eps_target))

    def _install(self, parent: ModelNode, slot: int, expected, new) -> bool:
        """Move ``parent``'s child ``slot`` from ``expected`` to ``new``: the
        one writer of child slots.  A move lost to a freeze hands the slot
        to ``help_compact``, which finishes the compaction that froze
        ``parent`` before the caller retries.  The transition log is told
        None for an empty slot's old child."""
        if dcss(parent, slot, expected, new):
            log = self.transition_log
            if log is not None:
                log(parent, slot, None if expected is EMPTY else expected, new)
            return True
        if parent.frozen is not None:
            self.help_compact(parent, slot, expected)
        return False
