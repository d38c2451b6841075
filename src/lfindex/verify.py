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
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from .core import KEY_MAX, UNSET_TS
from .bins import OneLevelBin, TwoLevelBin

CHECK_MAX_THREADS = 4
CHECK_MAX_OPS = 16
CHECK_MAX_KEYS = 8


class SequentialOracle:
    """Reference map semantics with full per-key version history.

    insert returns True iff the mapping changed (new key, revived key, or
    different payload); delete returns True iff the key was live; search
    returns the live payload or None; range returns live pairs in
    [key, key+width], ascending, optionally capped.
    """

    def __init__(self):
        self._live: dict[int, int] = {}
        self._history: dict[int, list[tuple[Optional[int], int]]] = {}
        self._sorted: list[int] = []  # every key ever inserted, sorted
        self._seq = 0

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "SequentialOracle":
        o = cls()
        for k, v in pairs:
            o._live[k] = v
            o._history[k] = [(v, 0)]
            o._sorted.append(k)
        o._seq = 1
        return o

    def _push(self, key: int, payload: Optional[int]) -> None:
        self._seq += 1
        if key not in self._history:
            self._history[key] = []
            insort(self._sorted, key)
        self._history[key].append((payload, self._seq))
        if payload is None:
            self._live.pop(key, None)
        else:
            self._live[key] = payload

    def insert(self, key: int, value: int) -> bool:
        if self._live.get(key) == value:
            return False
        self._push(key, value)
        return True

    def delete(self, key: int) -> bool:
        if key not in self._live:
            return False
        self._push(key, None)
        return True

    def search(self, key: int) -> Optional[int]:
        return self._live.get(key)

    def range(self, key: int, width: int,
              max_results: Optional[int] = None) -> list[tuple[int, int]]:
        hi = min(key + width, KEY_MAX)
        out = []
        a = bisect_left(self._sorted, key)
        b = bisect_right(self._sorted, hi)
        for k in self._sorted[a:b]:
            v = self._live.get(k)
            if v is not None:
                out.append((k, v))
                if max_results is not None and len(out) >= max_results:
                    break
        return out

    def live_map(self) -> dict[int, int]:
        return dict(self._live)

    def history(self, key: int) -> list[tuple[Optional[int], int]]:
        return list(self._history.get(key, ()))


@dataclass(frozen=True)
class HistoryEvent:
    thread: str
    op: str          # insert | delete | search | range
    args: tuple
    result: Any
    inv: int         # global tick at invocation
    res: int         # global tick at response


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
        if not changed:
            return state
        ns = dict(state)
        ns[k] = v
        return ns
    if e.op == "delete":
        (k,) = e.args
        present = k in state
        if e.result is not present:
            return None
        if not present:
            return state
        ns = dict(state)
        del ns[k]
        return ns
    if e.op == "search":
        (k,) = e.args
        return state if e.result == state.get(k) else None
    if e.op == "range":
        k, w = e.args
        hi = min(k + w, KEY_MAX)
        expected = sorted((kk, vv) for kk, vv in state.items() if k <= kk <= hi)
        return state if list(e.result) == expected else None
    raise ValueError(f"unknown op {e.op!r}")


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
    history (in invocation order) that already has no witness.
    """
    events = sorted(history, key=lambda e: e.inv)
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


_ARITY = {"insert": 2, "delete": 1, "search": 1, "range": 2}


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
    node's error within each of its segments' recorded eps, bin size
    counters equal to their list lengths, each list's hint None or a node
    of that list, no frozen bin or model node (every retrain and compaction
    finishes before its op returns; the walk still reads through one), and
    (optionally) that seek/search actually reach every key with the payload
    the walk extracted.  The walk keeps an explicit stack of model nodes, so
    it does not recurse however deep the tree is."""
    findings: list[Finding] = []
    payloads: dict[int, Optional[int]] = {}

    def note(kind: str, detail: str) -> None:
        findings.append(Finding(kind, detail))

    def chain_payload(key: int, head_ref) -> Any:
        ver = head_ref.load()
        if ver is None:
            note("missing-chain", f"key {key} has no version chain")
            return None
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

    def record_key(k: int, head_ref, where: str) -> None:
        if k in payloads:
            note("duplicate-key", f"key {k} reachable twice (second at {where})")
            return
        payloads[k] = chain_payload(k, head_ref)

    def walk_olb(olb: OneLevelBin, lo, hi, where: str) -> int:
        count = 0
        prev_key = None
        hint = olb.hint
        hint_seen = hint is None
        node = olb.head.load().target
        while node is not None:
            if node is hint:
                hint_seen = True
            k = node.item
            if prev_key is not None and k <= prev_key:
                note("key-order", f"{where}: {k} after {prev_key}")
            if not in_bounds(k, lo, hi):
                note("interval", f"{where}: key {k} outside ({lo}, {hi})")
            record_key(k, node.version, where)
            prev_key = k
            count += 1
            node = node.next.load().target
        if not hint_seen:
            note("list-hint", f"{where}: hint {hint!r} is not a node of the list")
        return count

    def walk_bin(bin_, lo, hi, where: str) -> None:
        if bin_.frozen is not None:
            note("frozen-bin", f"{where}: bin still frozen by a retrain")
        if bin_.is_one_level:
            count = walk_olb(bin_, lo, hi, where)
            if bin_.size.load() != count:
                note("size-counter",
                     f"{where}: size {bin_.size.load()} but {count} keys")
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
            if child.size.load() != c:
                note("size-counter",
                     f"{where}/child{i}: size {child.size.load()} but {c} keys")
            total += c
        if bin_.size.load() != total:
            note("size-counter",
                 f"{where}: total size {bin_.size.load()} but {total} keys")

    def check_model(node, where: str) -> None:
        segs = node.segments
        keys = node.keys
        if segs is None:
            note("model-missing", f"{where}: node has no segments")
            return
        if not keys:
            if segs:
                note("segmentation", f"{where}: segments over empty keys")
            return
        if not segs or segs[0].start_index != 0:
            note("segmentation", f"{where}: segments do not start at index 0")
            return
        for si, seg in enumerate(segs):
            end = segs[si + 1].start_index if si + 1 < len(segs) else len(keys)
            if seg.start_index >= end:
                note("segmentation", f"{where}: segment {si} is empty or reversed")
                continue
            if keys[seg.start_index] != seg.start_key:
                note("segmentation", f"{where}: segment {si} start_key mismatch")
            a, b, eps = seg.model
            for local, i in enumerate(range(seg.start_index, end)):
                err = abs(a * keys[i] + b - local)
                if err > eps:
                    note("model-error",
                         f"{where}: segment {si} error {err} > eps {eps} at index {i}")
                    break

    stack = [(index.root, None, None, "root")]
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
            record_key(k, node.versions[i], where)
        if len(node.children) != len(keys) + 1:
            note("child-count",
                 f"{where}: {len(node.children)} child slots for {len(keys)} keys")
            continue
        for i, ref in enumerate(node.children):
            child = ref.load()
            if child is None:
                continue
            clo = keys[i - 1] if i > 0 else lo
            chi = keys[i] if i < len(keys) else hi
            cw = f"{where}.{i}"
            if isinstance(child, (OneLevelBin, TwoLevelBin)):
                walk_bin(child, clo, chi, cw)
            else:
                stack.append((child, clo, chi, cw))

    if check_seek and not findings:
        for k, expected in payloads.items():
            got = index.search(k)
            if got != expected:
                note("unreachable-key",
                     f"key {k}: walk found payload {expected!r} but search returned {got!r}")
    return AuditReport(findings, payloads)
