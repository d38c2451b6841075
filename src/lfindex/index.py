"""The ordered map: a shallow hierarchy of model nodes fed by bins.

Structure invariants the operations below maintain:

- A slot holds its child: ``core.EMPTY``, a bin or a model node.  A model
  node's keys and model are immutable after construction; only its slots
  and its ``frozen`` word change, and a frozen node's slots never do.  A
  slot moves forward through empty -> bin -> model node, and a slot
  holding a model node may move to a new model node by a compaction
  install.  ``_install`` makes each move with one ``core.dcss``, which
  stores the new child unless the node is frozen; every child it stores
  is fresh, so a slot never takes back a child it held.
- The root sits in the one slot of the header, a keyless model node that
  nothing freezes, so a compaction replaces the root as it does any node.
- Routing: child slot i of a node covers the open interval between keys
  i-1 and i, so every key has exactly one home path.
- A bin is a sorted array whose keys never change once published
  (``bins``): a reader loads it once, an insert publishes a copy with
  one ``core.splice``, and an overwrite or delete stores a new head in
  place with one ``core.write_head``, as it does in a model node's
  ``versions``.
- Retrains never copy version chains: replacement structures reuse the
  per-key chain heads, so each key has one chain.
- Every version carries the clock's reading at the step that publishes
  it (the clock rule, in ``core``): a first insert's fresh bin is
  installed by a ``dcss`` that compares the clock, as a splice or a head
  write does; a rebuild publishes no new version and compares none.
- Every node's segments are ``segment_root`` under ``eps_target``, made
  by the ``ModelNode`` constructor alone, for every node.
- The index holds no reference cycle; reference counting frees every
  replaced structure.

A full bin is frozen and rebuilt by whichever thread meets it, and one
job, ``help_compact``, makes every rebuild (retrain, compaction) and
installs it with one ``dcss``.  A retrain (``IndexConfig`` says when)
puts a model node in a full bin's slot, so ascending inserts would grow
a chain of nested nodes; compaction bounds the depth.  A retrain is a
compaction: before it builds anything it takes as its top the highest
node on the bin's path, the root included, whose on-path descendants,
the bin included, hold at least ``COMPACT_RATIO`` times its keys, else
the bin itself.  A compaction collects the top's keys and
chain heads in order, freezing each model node and bin of a top node's
subtree, and builds one node.  A frozen node's ``frozen`` word is the job
``(parent, slot, keys)`` that froze it, so any thread that meets a frozen
node can finish the job, and every helper builds the same node.

Every operation acts on the child that ``seek`` loaded; no operation reads
a child slot a second time.  ``seek`` reads through frozen nodes.  The
freeze rule, a frozen owner never changes, and the argument that reads
through frozen structures are linearizable are stated once, in ``core``.
So search is one seek and one read, frozen or not, and insert and delete
are retry loops around seek: a full bin, a write that fails on a frozen
bin or node, or a lost install sends them back.  ``help_compact`` is the
one place that helps: a rebuild whose slot sits in a frozen node, and an
install or head write that finds its node frozen, all finish the
outermost compaction under way and build nothing of their own, so every
retry follows a step that some thread completed.
"""

from __future__ import annotations

import gc
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .core import (
    EMPTY,
    BenchReads,
    GlobalClock,
    VersionedValue,
    check_key,
    check_pairs,
    check_payload,
    dcss,
    freeze,
    write_version,
)
from .bins import (
    UNDER_MAKE_MODEL,
    bin_new,
    collect_frozen,
    delete_bin,
    freeze_bin,
    insert_bin,
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

#: Nothing calls it: a bin is retrained straight into a model node.  Only
#: the tracer in ``lfbench/layers.py`` reads the name, until ROADMAP item 1.
olb_to_tlb = None


@dataclass(frozen=True)
class IndexConfig:
    """The bin lifecycle: a bin holding ``olb_threshold`` keys is full, and
    the next insert that meets it retrains it into a model node.
    ``eps_target`` bounds every node: every node's segments are
    ``segment_root`` under it.  The threshold is taken through
    ``operator.index``, as keys are."""

    eps_target: float = DEFAULT_EPS_TARGET
    olb_threshold: int = 256

    def __post_init__(self):
        object.__setattr__(self, "olb_threshold", operator.index(self.olb_threshold))
        if not self.eps_target > 0:
            raise ValueError("eps_target must be positive")
        if self.olb_threshold < 1:
            raise ValueError("olb_threshold must be >= 1")


class ModelNode(BenchReads):
    """Immutable keys + piecewise model, one chain head per key, which only
    ``core.write_head`` replaces, m+1 child slots, each ``core.EMPTY``
    until ``core.dcss`` stores a child in it, and a freeze word: None, or
    the compaction job that froze the node.

    The one node builder: every node's segments are ``segment_root`` under
    ``eps_target``, flattened once into ``table`` for ``search_root``.
    """

    __slots__ = ("keys", "segments", "table", "versions", "children", "frozen")

    def __init__(self, keys, versions, eps_target):
        self.keys = keys
        self.versions = versions    # list[VersionedValue]: chain heads
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
        # a tracked object per key would trigger full collections that
        # find nothing: the index holds no reference cycle (module docstring)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            versions = [VersionedValue(v, 0) for v in payloads]
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
        full_len = 2 * self.config.olb_threshold  # a full bin's keys and heads
        while True:
            node, i, child = self.seek(key)
            if child is FOUND:
                res = self._write_node_key(node, i, value)
                if res is not None:
                    return res
                continue
            if child is EMPTY:
                t = clock.now.value
                if self._install(node, i, EMPTY, bin_new(key, value, t), clock, t):
                    return True
                continue  # lost to a first insert, a freeze or a scan's bump; retry
            if len(child.items) < full_len:
                res = insert_bin(child, key, value, clock)
                if res is not UNDER_MAKE_MODEL:
                    return res
            self.help_make_model(node, i, child)

    def delete(self, key: int) -> bool:
        """True if the key was present (its latest payload now Absent).
        A delete that meets a frozen bin or node helps and retries, as an
        insert does."""
        key = check_key(key)
        while True:
            node, i, child = self.seek(key)
            if child is FOUND:
                res = self._write_node_key(node, i, None)
                if res is not None:
                    return res
                continue
            if child is EMPTY:
                return False
            res = delete_bin(child, key, self.clock)
            if res is not UNDER_MAKE_MODEL:
                return res
            self.help_make_model(node, i, child)

    def _write_node_key(self, node: ModelNode, i: int, value: Any) -> Optional[bool]:
        """One attempt to write ``node``'s key ``i``: ``core.write_version``'s
        answer; on a frozen node, after finishing the compaction that froze
        it, as ``_install`` does."""
        res = write_version(node, node.versions, i, value, self.clock)
        if res is None and node.frozen is not None:
            self.help_compact(node, i, FOUND)
        return res

    def search(self, key: int) -> Optional[int]:
        """Latest payload, or None when absent.  Never helps, never blocks,
        never retries, never writes."""
        key = check_key(key)
        node, i, child = self.seek(key)
        if child is FOUND:
            return node.versions[i].val
        if child is EMPTY:
            return None
        head = search_bin(child, key)
        return None if head is None else head.val

    def range(self, key: int, width: int,
              max_results: Optional[int] = None) -> list[tuple[int, int]]:
        """Snapshot of live pairs with key <= k <= key+width (saturating),
        ascending, optionally capped at max_results pairs."""
        return range_search(self, key, width, max_results)

    def help_make_model(self, parent: ModelNode, slot: int, bin_: Any) -> None:
        """Freeze a full or frozen bin, pick the top that replaces it, and
        hand that top to ``help_compact``; build nothing here.

        The bin is frozen first, idempotently.  Its top is the one the
        module docstring names, picked before anything is built, or the bin
        itself when its path was replaced or frozen since.  No retry: the
        caller seeks again."""
        freeze_bin(bin_)
        top = (parent, slot, bin_)
        items = bin_.items  # final: the bin is frozen
        key = items[0]  # routes to the bin's slot: a bin is never empty
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
        below = len(items) >> 1
        for step in reversed(path):
            size = len(step[2].keys)
            if below >= COMPACT_RATIO * size:
                top = step
            below += size
        self.help_compact(*top)

    def help_compact(self, parent: ModelNode, slot: int, top: Any) -> None:
        """Replace ``top``, ``parent``'s child ``slot``, by one model node: a
        frozen bin by a node over its keys, and a model node, the root
        included, by a node over its whole subtree.

        A frozen ``parent`` means a compaction holds ``top``: the job words
        lead to the outermost job, which is finished instead if its top
        node is still in its slot, and nothing is built for ``top``.  Else
        nothing is collected unless ``top`` is still in its slot, and
        nothing is built unless it still is after the collect.

        The subtree's in-order walk, with an explicit stack, freezes each
        model node as it enters it and then reads that node's slots and
        chain heads, which no longer change: a nested node is walked, a bin is frozen and its
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
            keys, versions = collect_frozen(top)
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
                    bin_keys, bin_versions = collect_frozen(child)
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
        self._install(parent, slot, top, ModelNode(keys, versions, self.config.eps_target))

    def _install(self, parent: ModelNode, slot: int, expected, new,
                 clock: Optional[GlobalClock] = None, t: Any = None) -> bool:
        """Move ``parent``'s child ``slot`` from ``expected`` to ``new``: the
        one writer of child slots.  A fresh bin passes the ``clock`` and the
        reading ``t`` its version carries, which ``core.dcss`` compares; a
        rebuild passes neither.  A move lost to a freeze hands the slot to
        ``help_compact``, which finishes the compaction that froze
        ``parent`` before the caller retries.  The transition log is told
        None for an empty slot's old child."""
        if dcss(parent, slot, expected, new, clock, t):
            log = self.transition_log
            if log is not None:
                log(parent, slot, None if expected is EMPTY else expected, new)
            return True
        if parent.frozen is not None:
            self.help_compact(parent, slot, expected)
        return False
