"""The ordered map: a shallow hierarchy of model nodes fed by bins.

Structure invariants the operations below maintain:

- A slot holds a cell of None, a bin or a model node.  A model node's
  keys and model are immutable after construction; only its slots and its
  ``frozen`` word change, and a frozen node's slots never do.  A slot
  moves forward through empty -> one-level bin -> two-level bin -> model
  node, and a slot holding a model node may move to a new model node by a
  compaction install.  ``_install`` makes each move with one ``core.dcss``,
  which puts a fresh cell in the slot unless the node is frozen, so a cell
  never changes once published.  The root is never frozen or replaced.
- Routing: child slot i of a node covers the open interval between keys
  i-1 and i, so every key has exactly one home path.
- Retrains never move version chains: replacement structures reuse the
  per-key chain heads, so a writer holding a stale bin reference still
  lands its versions where readers of the new structure find them.
- The index holds no reference cycle; reference counting frees every
  replaced structure.

A retrain (``IndexConfig`` says when) hangs its node in the two-level
bin's slot, so ascending inserts would grow a chain of nested nodes;
compaction bounds the depth.  After a retrain, the highest non-root node on
the new node's path whose on-path descendants hold at least
``COMPACT_RATIO`` times its own key count is rebuilt, with its whole
subtree, as one model node: one in-order walk freezes each model node and
bin of the subtree and collects the keys and chain heads, one node is
fitted over them, and one ``dcss`` installs it in the parent's slot.  A
frozen node's ``frozen`` word is the job ``(parent, slot, keys)`` that
froze it, so any thread whose install meets a frozen node can finish the
job, and every helper builds the same node.

Every operation acts on the child that ``seek`` loaded; no operation reads
a child slot a second time.  ``seek`` reads through frozen nodes.  A freeze
stops splices and installs, never a chain write (the argument is in the
``bins`` docstring), so search and delete are one seek and then one read or
one write, frozen or not.  Insert is the only retry loop around seek: a
full bin, a splice that fails on a frozen bin, or a lost install sends it
back.  An install that finds its node frozen first helps that compaction
to its end, so every retry follows a step that some thread completed.
"""

from __future__ import annotations

import gc
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .core import (
    KEY_MAX,
    EMPTY,
    AtomicRef,
    GlobalClock,
    VersionedValue,
    dcss,
    freeze,
    init_ts,
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
    Segment,
    fit_linear,
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

#: A non-root node is compacted once the model nodes below it on a new
#: node's path hold this many times its own keys.
COMPACT_RATIO = 1


@dataclass(frozen=True)
class IndexConfig:
    """The bin lifecycle: a one-level bin holding ``olb_threshold`` keys is
    split into ``tlb_fanout`` lists, and a two-level bin holding
    ``tlb_threshold`` keys, or whose list for an inserted key holds
    ``list_threshold`` keys, is retrained into a model node."""

    eps_target: float = DEFAULT_EPS_TARGET
    olb_threshold: int = 64
    tlb_fanout: int = 8
    tlb_threshold: int = 1024

    def __post_init__(self):
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


class ModelNode:
    """Immutable keys + piecewise model, one version chain per key, m+1
    child slots, each ``core.EMPTY`` until ``core.dcss`` replaces it, and a
    freeze word: None, or the compaction job that froze the node.

    Every node carries ``segments``, flattened once into ``table``, and is
    searched by ``search_root`` within each segment's eps: the root's
    segments come from ``segment_root``, a node built by ``_node_over`` has
    one segment over ``fit_linear`` of its keys.
    """

    __slots__ = ("keys", "segments", "table", "versions", "children", "frozen")

    def __init__(self, keys, versions, segments):
        self.keys = keys
        self.versions = versions    # list[AtomicRef] -> version chain heads
        self.children = [EMPTY] * (len(keys) + 1)  # cells of None | bin | node
        self.segments = segments
        self.table = root_table(segments, len(keys))
        self.frozen = None

    def locate(self, key: int) -> tuple[int, bool]:
        return search_root(self.keys, self.table, key)


class LearnedIndex:
    """Linearizable lock-free ordered map over 63-bit keys and int payloads."""

    def __init__(self, root: ModelNode, clock: GlobalClock, config: IndexConfig):
        self.root = root
        self.clock = clock
        self.config = config
        # test hook: called as (parent, slot, old, new) after each
        # successful child-slot transition
        self.transition_log: Optional[Callable] = None

    @classmethod
    def build(cls, pairs: Iterable[tuple[int, int]],
              config: IndexConfig | None = None) -> "LearnedIndex":
        """Bulk-load from sorted unique (key, payload) pairs.

        Every loaded version is stamped with time 0; the clock starts at 0.
        Keys are stored as ``int`` (numpy integers would wrap in the fit's
        exact sums).  Rejects unsorted/duplicate keys, out-of-domain keys,
        and Absent payloads."""
        cfg = config or IndexConfig()
        keys: list[int] = []
        payloads: list[int] = []
        prev = -1
        for k, v in pairs:
            k = operator.index(k)
            if v is None:
                raise ValueError("payload must not be None")
            if k <= prev or k > KEY_MAX:  # prev starts at -1, so this also rejects negatives
                raise ValueError("pairs must be sorted with unique 63-bit keys")
            keys.append(k)
            payloads.append(v)
            prev = k
        segments = segment_root(keys, cfg.eps_target)
        # two tracked objects per key would trigger full collections that
        # find nothing: the index holds no reference cycle (module docstring)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            versions = [AtomicRef(VersionedValue(v, 0)) for v in payloads]
        finally:
            if was_enabled:
                gc.enable()
        root = ModelNode(keys, versions, segments)
        return cls(root, GlobalClock(0), cfg)

    def seek(self, key: int) -> tuple[ModelNode, int, Any]:
        """Walk model nodes toward ``key``; returns (node, i, child).

        ``child`` is FOUND when ``key == node.keys[i]``.  Otherwise ``i`` is
        the routing child slot and ``child`` is what seek loaded there:
        None, so the key is nowhere in the index right now, or a bin that
        may hold it."""
        node = self.root
        ix, found = search_root(node.keys, node.table, key)
        while True:
            if found:
                return node, ix, FOUND
            slot = ix + 1
            child = node.children[slot].load()
            if child.__class__ is not ModelNode:
                return node, slot, child
            node = child
            ix, found = search_nonroot(node.keys, node.table, key)

    def insert(self, key: int, value: int) -> bool:
        """True if the map changed (new key, or new value for the key)."""
        if value is None:
            raise ValueError("payload must not be None")
        key = operator.index(key)  # stored, so an int, as in build
        if not 0 <= key <= KEY_MAX:
            raise ValueError("key outside the 63-bit domain")
        clock = self.clock
        cfg = self.config
        while True:
            node, i, child = self.seek(key)
            if child is FOUND:
                return write_value(node.versions[i], value, clock)
            if child is None:
                fresh, ver = bin_new(key, value)
                if self._install(node, i, None, fresh):
                    init_ts(ver, clock)  # stamped only once published
                    return True
                continue  # lost to a concurrent first insert or a freeze; retry
            if child.is_one_level:
                full = child.size.load() >= cfg.olb_threshold
            else:
                full = (child.size.load() >= cfg.tlb_threshold
                        or list_size(child, key) >= cfg.list_threshold)
            if full:
                self.help_make_model(node, i, child)
                continue
            res = insert_bin(child, key, value, clock)
            if res is UNDER_MAKE_MODEL:
                self.help_make_model(node, i, child)
                continue
            return res

    def delete(self, key: int) -> bool:
        """True if the key was present (its latest payload now Absent).
        One seek and at most one chain write: a frozen bin or subtree
        still takes the write (see ``bins``), so it never retries."""
        if not 0 <= key <= KEY_MAX:
            raise ValueError("key outside the 63-bit domain")
        node, i, child = self.seek(key)
        if child is FOUND:
            return write_value(node.versions[i], None, self.clock)
        if child is None:
            return False
        return delete_bin(child, key, self.clock)

    def search(self, key: int) -> Optional[int]:
        """Latest payload, or None when absent.  Never helps, never blocks,
        never retries; its only write is a timestamp assignment on an
        unstamped head."""
        if not 0 <= key <= KEY_MAX:
            raise ValueError("key outside the 63-bit domain")
        node, i, child = self.seek(key)
        if child is FOUND:
            return read_value_latest(node.versions[i], self.clock)
        if child is None:
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
        """Drive one lifecycle step for a full or frozen bin, then stop.

        Freeze, collect, build, install: freeze is idempotent; collection and
        construction happen on private data; the single install decides
        the winner and losers simply discard their build.  No retry: if the
        install fails the transition already happened, or a compaction froze
        the node and has been helped to its end.  A one-level bin becomes a
        two-level bin, a two-level bin a model node; the thread whose model
        node goes in then compacts above it if the path calls for it."""
        freeze_bin(bin_)
        keys, versions = collect_frozen(bin_, self.clock)
        if bin_.is_one_level:
            self._install(parent, slot, bin_,
                          olb_to_tlb(keys, versions, self.config.tlb_fanout))
            return
        fresh = _node_over(keys, versions)
        if self._install(parent, slot, bin_, fresh):
            self._compact_above(fresh)

    def _compact_above(self, new: ModelNode) -> None:
        """Compact the highest non-root node on ``new``'s path whose on-path
        descendants hold at least COMPACT_RATIO times its keys, if any."""
        key = new.keys[0]
        path = []  # (parent, slot, node) for each non-root node down to new
        node = self.root
        while node is not new:
            slot = bisect_left(node.keys, key)
            child = node.children[slot].load()
            if child.__class__ is not ModelNode or node.frozen is not None:
                return  # replaced or frozen since: a compaction got here first
            path.append((node, slot, child))
            node = child
        below = 0
        target = None
        for step in reversed(path):
            size = len(step[2].keys)
            if below >= COMPACT_RATIO * size:
                target = step
            below += size
        if target is not None:
            self.help_compact(*target)

    def help_compact(self, parent: ModelNode, slot: int, node: ModelNode) -> None:
        """Replace ``node``, the non-root model node in ``parent``'s child
        ``slot``, and its whole subtree with one model node.

        One in-order walk over the subtree, with an explicit stack, freezes
        each model node as it enters it and then reads that node's slots,
        which no longer change: a nested node is walked, a bin is frozen and
        its keys and chain heads collected (deleted keys too), and each node
        key follows its left slot.  A frozen node or bin never changes, so
        every helper collects the same keys, fits the same node, and the
        first install wins."""
        # the job names node by its keys list, so a replaced subtree holds
        # no reference back to its root: no cycle (module docstring)
        job = (parent, slot, node.keys)
        keys: list[int] = []
        versions: list[AtomicRef] = []
        stack = []  # (node, i): slot i of node is done, key i comes next
        n, i = node, 0
        freeze(n, job)
        while True:
            child = n.children[i].load()
            if child.__class__ is ModelNode:
                stack.append((n, i))
                n, i = child, 0
                freeze(n, job)
                continue
            if child is not None:
                freeze_bin(child)
                bin_keys, bin_versions = collect_frozen(child, self.clock)
                keys += bin_keys
                versions += bin_versions
            while i == len(n.keys):  # n's last slot is done
                if not stack:
                    self._install(parent, slot, node, _node_over(keys, versions))
                    return
                n, i = stack.pop()
            keys.append(n.keys[i])
            versions.append(n.versions[i])
            i += 1

    def _install(self, parent: ModelNode, slot: int, expected, new) -> bool:
        """Move ``parent``'s child ``slot`` from ``expected`` to ``new``: the
        one writer of child slots.  A move lost to a freeze first finishes
        the outermost compaction under way: a frozen node's job names the
        parent it installs in, which may be frozen by an outer job."""
        if dcss(parent, slot, expected, new):
            log = self.transition_log
            if log is not None:
                log(parent, slot, expected, new)
            return True
        if parent.frozen is None:
            return False  # lost to another move of the same slot
        while parent.frozen is not None:
            parent, slot, keys = parent.frozen
        cur = parent.children[slot].load()
        if cur.__class__ is ModelNode and cur.keys is keys:  # not installed yet
            self.help_compact(parent, slot, cur)
        return False


def _node_over(keys: list[int], versions: list[AtomicRef]) -> ModelNode:
    """A non-root model node over collected keys and chain heads, with one
    segment and empty child slots."""
    return ModelNode(keys, versions, [Segment(keys[0], 0, fit_linear(keys))])
