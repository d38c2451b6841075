"""Verification tools: sequential oracle, linearizability check, audit.

Three independent ways to catch a wrong index:

- SequentialOracle: executable reference semantics of the ordered map,
  for single-threaded conformance runs.
- check_linearizable: exhaustive witness search over small concurrent
  histories (bounded: <= 4 threads, <= 16 ops, <= 8 distinct keys), with
  real-time order taken from a global tick sequence.
- audit_structure: offline walk of a quiescent index checking every
  structural invariant and extracting the key -> payload map.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from .core import (EMPTY, UNSET_TS, VersionedValue, check_key, check_pairs, check_payload,
                   range_bounds)
from .bins import OneLevelBin, TwoLevelBin
from .index import ModelNode
from .models import root_table

CHECK_MAX_THREADS = 4
CHECK_MAX_OPS = 16
CHECK_MAX_KEYS = 8


class SequentialOracle:
    """Reference map semantics.

    insert returns True iff the mapping changed (new key, revived key, or
    different payload); delete returns True iff the key was live; search
    returns the live payload or None; range returns live pairs in
    [key, key+width], ascending, optionally capped at ``max_results``.
    Every call, and ``from_pairs``, takes its input through ``core``'s
    checks, as ``LearnedIndex`` does: both refuse alike.
    """

    def __init__(self):
        self._live: dict[int, int] = {}
        self._sorted: list[int] = []  # every key ever inserted, sorted

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "SequentialOracle":
        o = cls()
        o._sorted, payloads = check_pairs(pairs)
        o._live = dict(zip(o._sorted, payloads))
        return o

    def insert(self, key: int, value: int) -> bool:
        check_payload(value)
        key = check_key(key)
        if self._live.get(key) == value:
            return False
        i = bisect_left(self._sorted, key)
        if i == len(self._sorted) or self._sorted[i] != key:
            self._sorted.insert(i, key)
        self._live[key] = value
        return True

    def delete(self, key: int) -> bool:
        return self._live.pop(check_key(key), None) is not None

    def search(self, key: int) -> Optional[int]:
        return self._live.get(check_key(key))

    def range(self, key: int, width: int,
              max_results: Optional[int] = None) -> list[tuple[int, int]]:
        key, hi, max_results = range_bounds(key, width, max_results)
        out = []
        a = bisect_left(self._sorted, key)
        b = bisect_right(self._sorted, hi)
        for k in self._sorted[a:b]:
            if len(out) == max_results:
                break
            v = self._live.get(k)
            if v is not None:
                out.append((k, v))
        return out

    def live_map(self) -> dict[int, int]:
        return dict(self._live)


@dataclass(frozen=True)
class HistoryEvent:
    thread: str
    op: str          # insert | delete | search | range
    args: tuple
    result: Any
    inv: int         # global tick at invocation
    res: int         # global tick at response


#: Each op the checker and the log format take, with its argument count.
_ARITY = {"insert": 2, "delete": 1, "search": 1, "range": 2}


class HistoryRecorder:
    """Wraps an index; timestamps each op with global invocation/response
    ticks so recorded histories carry their real-time precedence."""

    def __init__(self, index):
        self.index = index
        self._tick = itertools.count()  # next() is atomic in CPython
        self._events: list[HistoryEvent] = []

    def run(self, thread: str, op: str, *args) -> Any:
        fn = getattr(self.index, op)
        inv = next(self._tick)
        result = fn(*args)
        res = next(self._tick)
        self._events.append(HistoryEvent(thread, op, args, result, inv, res))
        return result

    def history(self) -> list[HistoryEvent]:
        return sorted(self._events, key=lambda e: e.inv)


def _apply_op(state: dict, e: HistoryEvent):
    """Next map state if e's recorded result is legal from `state`, else None."""
    if e.op == "insert":
        k, v = e.args
        changed = state.get(k) != v
        if e.result is not changed:
            return None
        return {**state, k: v} if changed else state
    if e.op == "delete":
        (k,) = e.args
        present = k in state
        if e.result is not present:
            return None
        return {kk: vv for kk, vv in state.items() if kk != k} if present else state
    if e.op == "search":
        (k,) = e.args
        return state if e.result == state.get(k) else None
    k, hi, _ = range_bounds(*e.args)  # a range: check_linearizable refused any other op
    expected = sorted((kk, vv) for kk, vv in state.items() if k <= kk <= hi)
    return state if list(e.result) == expected else None


def _find_witness(events: list[HistoryEvent]) -> Optional[list[int]]:
    n = len(events)
    full = (1 << n) - 1
    inv = [e.inv for e in events]
    res = [e.res for e in events]
    failed: set[tuple[int, tuple]] = set()

    def dfs(mask: int, state: dict) -> Optional[list[int]]:
        if mask == full:
            return []
        key = (mask, tuple(sorted(state.items())))
        if key in failed:
            return None
        cutoff = min(res[i] for i in range(n) if not mask & (1 << i))
        for i in range(n):
            if mask & (1 << i) or inv[i] >= cutoff:
                continue  # some uncommitted op finished before i began
            ns = _apply_op(state, events[i])
            if ns is None:
                continue
            sub = dfs(mask | (1 << i), ns)
            if sub is not None:
                return [i] + sub
        failed.add(key)
        return None

    return dfs(0, {})


@dataclass
class CheckResult:
    ok: bool
    witness: Optional[list[HistoryEvent]]          # a legal sequential order
    failing_prefix: Optional[list[HistoryEvent]]   # minimal by invocation order

    def __bool__(self):
        return self.ok


def check_linearizable(history: Iterable[HistoryEvent]) -> CheckResult:
    """Exhaustive linearizability check of a small complete history.

    Tries every sequential order consistent with real time (op A precedes
    op B iff A responded before B was invoked), pruning repeated
    (done-set, state) pairs.  On failure, reports the shortest prefix of the
    history (in invocation order) that already has no witness.  Every
    event must name an op with its arity in ``_ARITY``, as a parsed line
    must, or ValueError: a capped range, for one, is not checked.
    """
    events = sorted(history, key=lambda e: e.inv)
    for e in events:
        if _ARITY.get(e.op) != len(e.args):
            raise ValueError(f"bad op/arity in history event: {e!r}")
    n = len(events)
    if n > CHECK_MAX_OPS:
        raise ValueError(f"history too long for exhaustive check ({n} > {CHECK_MAX_OPS})")
    threads = {e.thread for e in events}
    if len(threads) > CHECK_MAX_THREADS:
        raise ValueError(f"too many threads ({len(threads)} > {CHECK_MAX_THREADS})")
    keys = {e.args[0] for e in events}
    if len(keys) > CHECK_MAX_KEYS:
        raise ValueError(f"too many distinct keys ({len(keys)} > {CHECK_MAX_KEYS})")

    order = _find_witness(events)
    if order is not None:
        return CheckResult(True, [events[i] for i in order], None)
    for k in range(1, n + 1):
        if _find_witness(events[:k]) is None:
            return CheckResult(False, None, events[:k])
    raise AssertionError("unreachable: full history failed but every prefix passed")


# ---------------------------------------------------------------------------
# history log serialization: one event per line,
#   "<inv> <res> <thread> <op> <args...> = <result>"

def format_event(e: HistoryEvent) -> str:
    if " " in e.thread:
        raise ValueError("thread names must not contain spaces")
    args = " ".join(str(a) for a in e.args)
    if e.op in ("insert", "delete"):
        result = "true" if e.result else "false"
    elif e.op == "search":
        result = "none" if e.result is None else str(e.result)
    elif e.op == "range":
        result = ",".join(f"{k}:{v}" for k, v in e.result) if e.result else "empty"
    else:
        raise ValueError(f"unknown op {e.op!r}")
    return f"{e.inv} {e.res} {e.thread} {e.op} {args} = {result}"


def parse_event(line: str) -> HistoryEvent:
    parts = line.split()
    try:
        sep = parts.index("=")
    except ValueError:
        raise ValueError(f"missing '=' in history line: {line!r}") from None
    head, tail = parts[:sep], parts[sep + 1:]
    if len(head) < 4 or len(tail) != 1:
        raise ValueError(f"malformed history line: {line!r}")
    inv, res, thread, op = int(head[0]), int(head[1]), head[2], head[3]
    raw_args = head[4:]
    if op not in _ARITY or len(raw_args) != _ARITY[op]:
        raise ValueError(f"bad op/arity in history line: {line!r}")
    args = tuple(int(a) for a in raw_args)
    if op == "range":
        range_bounds(*args)
    else:
        check_key(args[0])
    tok = tail[0]
    result: Any
    if op in ("insert", "delete"):
        if tok not in ("true", "false"):
            raise ValueError(f"expected true/false result: {line!r}")
        result = tok == "true"
    elif op == "search":
        result = None if tok == "none" else int(tok)
    else:
        if tok == "empty":
            result = []
        else:
            result = [(int(k), int(v)) for k, v in
                      (pair.split(":") for pair in tok.split(","))]
    return HistoryEvent(thread, op, args, result, inv, res)


def write_history(events: Iterable[HistoryEvent], path) -> None:
    with open(path, "w") as f:
        for e in sorted(events, key=lambda ev: ev.inv):
            f.write(format_event(e) + "\n")


def read_history(path) -> list[HistoryEvent]:
    events = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                events.append(parse_event(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return events


# ---------------------------------------------------------------------------
# structural audit

@dataclass(frozen=True)
class Finding:
    kind: str
    detail: str


@dataclass
class AuditReport:
    findings: list[Finding]
    payloads: dict[int, Optional[int]]  # latest payload per key, None = deleted

    @property
    def ok(self) -> bool:
        return not self.findings

    def live_map(self) -> dict[int, int]:
        return {k: v for k, v in self.payloads.items() if v is not None}


def audit_structure(index, check_seek: bool = True) -> AuditReport:
    """Walk a quiescent index and verify its structural invariants.

    Checks: strict key order and routing-interval containment everywhere,
    global key uniqueness (one home path per key), version chains stamped
    except possibly at the head with non-increasing timestamps, every model
    node's error within each of its segments' recorded eps, each eps at
    most ``index.config.eps_target`` (every node's segments are
    ``segment_root`` under it), each node's locate table equal to
    ``root_table`` over its segments, each window holding its keys' indices
    and at most int(eps) + 1 wide, every slot holding ``EMPTY``, a bin or a
    model node, every list's array of even length, every chain head, in a
    list or a model node, a ``VersionedValue``, bin size counters equal to
    their list lengths, no frozen
    bin or model node, the root included (every retrain and compaction
    finishes before its op returns; the walk still reads through one), a header that is not frozen, holds no keys and has one
    slot, which holds a model node, and (optionally) that seek/search
    actually reach every key with the payload the walk extracted.  The walk starts at the header and
    keeps an explicit stack of model nodes, so it does not recurse however
    deep the tree is."""
    findings: list[Finding] = []
    payloads: dict[int, Optional[int]] = {}
    eps_target = index.config.eps_target

    def note(kind: str, detail: str) -> None:
        findings.append(Finding(kind, detail))

    def chain_payload(key: int, ver: VersionedValue) -> Any:
        head_val = ver.val
        prev_ts = None
        pos = 0
        while ver is not None:
            if ver.ts == UNSET_TS:
                if pos > 0:
                    note("unstamped-version",
                         f"key {key}: interior version {pos} has no timestamp")
            else:
                if prev_ts is not None and ver.ts > prev_ts:
                    note("timestamp-order",
                         f"key {key}: version {pos} ts {ver.ts} newer than predecessor {prev_ts}")
                prev_ts = ver.ts
            ver = ver.vnext
            pos += 1
        return head_val

    def in_bounds(k: int, lo, hi) -> bool:
        return (lo is None or k > lo) and (hi is None or k < hi)

    def record_key(k: int, head, where: str, kind: str) -> None:
        if head.__class__ is not VersionedValue:
            note(kind, f"{where}: key {k}'s chain head is {head!r}, not a version")
            return
        if k in payloads:
            note("duplicate-key", f"key {k} reachable twice (second at {where})")
            return
        payloads[k] = chain_payload(k, head)

    def walk_olb(olb: OneLevelBin, lo, hi, where: str) -> int:
        items = olb.items
        n, odd = divmod(len(items), 2)
        if odd:
            note("list-shape", f"{where}: an array of odd length {len(items)}")
        for i in range(n):
            k, head = items[i], items[n + i]
            if i > 0 and k <= items[i - 1]:
                note("key-order", f"{where}: {k} after {items[i - 1]}")
            if not in_bounds(k, lo, hi):
                note("interval", f"{where}: key {k} outside ({lo}, {hi})")
            record_key(k, head, where, "list-shape")
        return n

    def walk_bin(bin_, lo, hi, where: str) -> None:
        if bin_.frozen is not None:
            note("frozen-bin", f"{where}: bin still frozen by a retrain")
        if bin_.is_one_level:
            count = walk_olb(bin_, lo, hi, where)
            if bin_.size != count:
                note("size-counter",
                     f"{where}: size {bin_.size} but {count} keys")
            return
        seps = bin_.keys
        for i in range(1, len(seps)):
            if seps[i] < seps[i - 1]:
                note("separator-order", f"{where}: separators not ascending")
        total = 0
        for i, child in enumerate(bin_.children):
            clo = seps[i - 1] if i > 0 else lo
            # child i owns keys up to and including separator i
            chi_excl = seps[i] + 1 if i < len(seps) else hi
            c = walk_olb(child, clo, chi_excl, f"{where}/child{i}")
            if child.size != c:
                note("size-counter",
                     f"{where}/child{i}: size {child.size} but {c} keys")
            total += c
        if bin_.size != total:
            note("size-counter",
                 f"{where}: total size {bin_.size} but {total} keys")

    def check_model(node, where: str) -> None:
        segs = node.segments
        keys = node.keys
        if not keys:
            if segs:
                note("segmentation", f"{where}: segments over empty keys")
            return
        if not segs or segs[0].start_index != 0:
            note("segmentation", f"{where}: segments do not start at index 0")
            return
        try:
            if node.table != root_table(segs, len(keys)):
                note("locate-window", f"{where}: locate table disagrees with its segments")
        except ValueError as e:
            note("locate-window", f"{where}: {e}")
        for si, seg in enumerate(segs):
            end = segs[si + 1].start_index if si + 1 < len(segs) else len(keys)
            if seg.start_index >= end:
                note("segmentation", f"{where}: segment {si} is empty or reversed")
                continue
            if keys[seg.start_index] != seg.start_key:
                note("segmentation", f"{where}: segment {si} start_key mismatch")
            a, b, eps = seg.model
            if eps > eps_target:
                note("eps-bound", f"{where}: segment {si} eps {eps} > eps_target {eps_target}")
            # the window must hold each key's index under search_root's own
            # arithmetic, which also reads the table's a and b + 0.5
            c, w = b + 0.5, seg.window
            first = seg.start_index
            for local, i in enumerate(range(first, end)):
                err = abs(a * keys[i] + b - local)
                if err > eps:
                    note("model-error",
                         f"{where}: segment {si} error {err} > eps {eps} at index {i}")
                    break
                p = min(max(math.floor(a * keys[i] + c), 0), end - 1 - first)
                if abs(p - local) > w:
                    note("locate-window",
                         f"{where}: segment {si} window {w} misses index {i}, predicted at {first + p}")
                    break
            else:
                if w > int(eps) + 1:
                    note("locate-window",
                         f"{where}: segment {si} window {w} wider than int(eps {eps}) + 1")

    header = index.header
    if header.frozen is not None:
        note("frozen-header", "the header is frozen: no compaction may take it")
    if header.keys:
        note("header-keys", f"the header holds {len(header.keys)} keys")
    if len(header.children) != 1:
        note("header-slots", f"the header has {len(header.children)} slots, not one")
    stack = []
    if header.children:
        root = header.children[0]
        if root.__class__ is ModelNode:
            stack.append((root, None, None, "root"))
        else:
            note("header-root", f"the header's slot holds {type(root).__name__}, "
                                "not a model node")
    while stack:
        node, lo, hi, where = stack.pop()
        keys = node.keys
        if node.frozen is not None:
            note("frozen-node", f"{where}: node still frozen by a compaction")
        check_model(node, where)
        for i, k in enumerate(keys):
            if i > 0 and k <= keys[i - 1]:
                note("key-order", f"{where}: {k} after {keys[i - 1]}")
            if not in_bounds(k, lo, hi):
                note("interval", f"{where}: key {k} outside ({lo}, {hi})")
            record_key(k, node.versions[i], where, "node-shape")
        if len(node.children) != len(keys) + 1:
            note("child-count",
                 f"{where}: {len(node.children)} child slots for {len(keys)} keys")
            continue
        for i, child in enumerate(node.children):
            if child is EMPTY:
                continue
            clo = keys[i - 1] if i > 0 else lo
            chi = keys[i] if i < len(keys) else hi
            cw = f"{where}.{i}"
            if isinstance(child, (OneLevelBin, TwoLevelBin)):
                walk_bin(child, clo, chi, cw)
            elif child.__class__ is ModelNode:
                stack.append((child, clo, chi, cw))
            else:
                note("slot-kind", f"{cw} holds {child!r}, not EMPTY, a bin or a model node")

    if check_seek and not findings:
        for k, expected in payloads.items():
            got = index.search(k)
            if got != expected:
                note("unreachable-key",
                     f"key {k}: walk found payload {expected!r} but search returned {got!r}")
    return AuditReport(findings, payloads)
