"""Shared primitives: atomic cells, list ends, versioned values, the clock.

Every mutation anywhere in the index funnels through a single-word
compare-and-swap on ``AtomicRef``, or through ``dcss``, ``splice``,
``freeze`` and ``VersionedValue.stamp``: ``dcss`` stores a model node's
child in its slot, ``splice`` puts a new key node into a bin's list,
``freeze`` sets the freeze word of either owner, after which neither
succeeds, and ``stamp`` sets a version's timestamp once.
CPython has no native CAS, so the primitives emulate it with one module
lock, ``_LOCK``, which every guarded step takes, so each excludes every
other.  Each critical section is a constant-time compare and its stores,
never nested, and never calls back into user code.  The design assumes
the GIL: plain attribute loads are atomic under it and serve for all
reads, and since it lets no two steps run at once anyway, one lock costs
no parallelism that finer locks would keep.

Every compare is by identity, and no compared field can take back an
object it once held (no ABA).  A slot leaves ``EMPTY`` once, and every
other child a ``dcss`` stores is fresh.  A list's or node's ``next``
leaves ``END`` once and never returns to it, every node a ``splice``
stores there is fresh, and a list only gains nodes, so once a ``next``
moves off a node it never holds that node again.  A chain head holds
fresh versions only, and the clock's cell only rises (``GlobalClock``).

Payload convention: payloads are ints; ``None`` is the Absent marker written
by deletions.  A read as of a time answers the payload of the newest version
no newer than that time, or None: deleted then and not yet written read
alike.
"""

from __future__ import annotations

import operator
import threading
from typing import Any, Callable, Iterable, Optional

KEY_MAX = 2**63 - 1  # keys are unsigned 63-bit: [0, 2**63 - 1]
UNSET_TS = -1


# The map's input contract (README, "Input contract"), enforced here alone.

def check_key(key: Any) -> int:
    """``key`` through ``operator.index``, in ``[0, KEY_MAX]`` or ValueError."""
    key = operator.index(key)
    if not 0 <= key <= KEY_MAX:
        raise ValueError(f"key {key} outside the 63-bit domain [0, 2**63 - 1]")
    return key


def check_payload(value: Any) -> None:
    """A payload is anything but None, the Absent marker deletions write."""
    if value is None:
        raise ValueError("payload must not be None")


def range_bounds(key: Any, width: Any, max_results: Any = None) -> tuple:
    """``(key, hi, cap)``: the key through ``check_key``, the width and a cap
    other than None through ``operator.index`` and >= 0, and ``hi`` the
    window's top, ``key + width`` saturated at ``KEY_MAX``."""
    key = check_key(key)
    width = operator.index(width)
    if width < 0:
        raise ValueError("range width must be >= 0")
    if max_results is not None:
        max_results = operator.index(max_results)
        if max_results < 0:
            raise ValueError("max_results must be >= 0 or None")
    return key, min(key + width, KEY_MAX), max_results


def check_pairs(pairs: Iterable[tuple[Any, Any]]) -> tuple[list[int], list]:
    """Keys and payloads of strictly ascending (key, payload) pairs.  Keys
    ascending from 0 are in the domain if the last is, so a pair in order
    costs no call."""
    keys, payloads = [], []
    prev = -1
    for k, v in pairs:
        k = operator.index(k)
        if k <= prev or v is None:
            check_key(k)  # a negative key fails the order
            check_payload(v)
            raise ValueError("pairs must be sorted, with unique keys")
        keys.append(k)
        payloads.append(v)
        prev = k
    if keys:
        check_key(keys[-1])
    return keys, payloads


_LOCK = threading.Lock()

# Test instrumentation: called as hook(cell, success) from inside ``_LOCK``,
# so the event order in the hook is the one true order of all guarded steps.
# ``dcss``, ``splice`` and ``freeze`` report as described on them.
_cas_hook: Optional[Callable[[object, bool], None]] = None


def set_cas_hook(hook: Optional[Callable[[object, bool], None]]) -> None:
    global _cas_hook
    _cas_hook = hook


class AtomicRef:
    """A reference cell with load / CAS as indivisible steps: a load is a
    plain read of ``value``, atomic under the GIL, and a CAS is one compare
    and one store under ``_LOCK``.  Every read in the index reads ``value``;
    ``load`` is kept for the benchmark's probes, which call it.

    CAS compares by identity, so logically-equal but distinct objects fail
    the swap (no ABA: module docstring).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any = None):
        self.value = value

    def load(self) -> Any:
        return self.value

    def compare_and_swap(self, expected: Any, new: Any) -> bool:
        hook = _cas_hook
        with _LOCK:
            ok = self.value is expected
            if ok:
                self.value = new
            if hook is not None:
                hook(self, ok)
        return ok


class BenchReads:
    """The structure reads of ``lfbench/layers.py``, their only user, which
    was written when a slot and a link were cells: ``load()`` on a slot's
    child or a link returns the object itself (``EMPTY``, a cell, answers
    None), ``target`` on a node returns the node, or None on ``END``, and
    ``head`` on a list returns its first node.  No module of the index
    calls them; ROADMAP item 1, which gives the benchmark ``index.stats()``,
    removes them."""

    __slots__ = ()

    def load(self) -> Any:
        return self

    @property
    def target(self) -> Any:
        return None if self is END else self

    @property
    def head(self) -> Any:
        return self.next


class _End(BenchReads):
    """The tail of every list: its ``item`` is above every key, so a walk
    toward a key stops at it with no test of its own."""

    __slots__ = ()
    item = KEY_MAX + 1

    def __repr__(self):
        return "END"


#: The one list tail, shared by every list, and the one child of every
#: empty slot, which nothing writes (ABA argument in the module docstring).
END = _End()
EMPTY = AtomicRef()


def dcss(owner: Any, i: int, expected: Any, new: Any) -> bool:
    """Store ``new`` in ``owner.children[i]`` iff ``owner.frozen`` is None
    and the slot holds ``expected``: a double-compare single-swap (Harris,
    Fraser & Pratt, DISC 2002) in one step under ``_LOCK``.  The hook sees
    the child stored or found, or a frozen owner: a failure names what a
    success stored."""
    hook = _cas_hook
    with _LOCK:
        if owner.frozen is not None:
            target, ok = owner, False
        else:
            target = owner.children[i]
            ok = target is expected
            if ok:
                target = owner.children[i] = new
        if hook is not None:
            hook(target, ok)
    return ok


def splice(owner: Any, lst: Any, pred: Any, succ: Any, node: Any) -> bool:
    """Put the fresh ``node`` between ``pred`` and ``succ`` in the list
    ``lst`` of the bin ``owner`` iff ``owner.frozen`` is None and
    ``pred.next`` holds ``succ``; ``pred`` is a node of the list, or the
    list itself, whose ``next`` is its first node.  In one step under
    ``_LOCK``: point ``node.next`` at ``succ`` and ``pred.next`` at
    ``node``, make the node the list's hint, append it to the list's
    fingers, if it keeps them, when it is the new tail (``succ`` is
    ``END``), and count it in ``lst.size`` and, for a child list, in
    ``owner.size``.  A failure writes nothing.  The hook sees ``pred``
    written or found, or a frozen owner."""
    hook = _cas_hook
    with _LOCK:
        if owner.frozen is not None:
            target, ok = owner, False
        else:
            target = pred
            ok = pred.next is succ
            if ok:
                node.next = succ
                pred.next = node
                lst.hint = node
                if succ is END and lst.fingers is not None:
                    lst.fingers.append(node)
                lst.size += 1
                if lst is not owner:
                    owner.size += 1
        if hook is not None:
            hook(target, ok)
    return ok


def freeze(owner: Any, job: Any) -> None:
    """Set ``owner.frozen`` to ``job`` unless it is already set, in one step
    under ``_LOCK``.  Terminal: no later ``dcss`` or ``splice`` on the owner
    succeeds.  The hook sees ``(owner, ok)``."""
    hook = _cas_hook
    with _LOCK:
        ok = owner.frozen is None
        if ok:
            owner.frozen = job
        if hook is not None:
            hook(owner, ok)


class VersionedValue:
    """One version in a per-key chain: payload, write timestamp, older tail.

    ``ts`` starts unset (-1) and is set exactly once, by ``stamp``;
    ``val`` and ``vnext`` never change after construction.  Only the chain
    head may have an unset ts: writers stamp the displaced head before
    publishing a new one on top of it.
    """

    __slots__ = ("val", "ts", "vnext")

    def __init__(self, val: Any, ts: int = UNSET_TS, vnext: "VersionedValue | None" = None):
        self.val = val
        self.ts = ts
        self.vnext = vnext

    def stamp(self, clock: GlobalClock) -> None:
        """Set ``ts`` from a fresh clock read unless it is already set.

        The clock is read before ``_LOCK`` is taken, so the critical
        section is one compare and one store; on a lost race the winner's
        (also fresh) read stands.  Idempotent."""
        if self.ts != UNSET_TS:
            return
        t = clock.read()
        with _LOCK:
            if self.ts == UNSET_TS:
                self.ts = t

    def __repr__(self):
        return f"VersionedValue(val={self.val!r}, ts={self.ts})"


class GlobalClock:
    """Logical time shared by the whole index; starts at 0.

    ``now`` is an ``AtomicRef`` holding an int.  Its identity CAS is sound
    because the clock only rises: the cell never takes back an int object
    it once held, so a bump from a stale read fails."""

    __slots__ = ("now",)

    def __init__(self, start: int = 0):
        self.now = AtomicRef(start)

    def read(self) -> int:
        return self.now.value

    def read_and_bump(self) -> int:
        """Read the clock and try once to advance it; returns the read value.

        A failed bump means some concurrent reader already advanced past the
        value we read, which serves the same purpose, so no retry.
        """
        t = self.now.value
        self.now.compare_and_swap(t, t + 1)
        return t


def read_value_latest(head_ref: AtomicRef, clock: GlobalClock) -> Any:
    """Latest payload of a version chain; stamps the head if unset."""
    ver = head_ref.value
    if ver.ts == UNSET_TS:
        ver.stamp(clock)
    return ver.val


def read_value_at(head_ref: AtomicRef, ts: int, clock: GlobalClock) -> Any:
    """Payload as of logical time ``ts``.

    Walks past versions written after ``ts``; returns the payload of the
    newest version stamped at or before ``ts``, or None when that version
    is a delete or the whole chain is newer than ``ts``.  Stamps the head
    if unset.
    """
    ver = head_ref.value
    if ver.ts == UNSET_TS:
        ver.stamp(clock)
    while ver is not None and ver.ts > ts:
        ver = ver.vnext
        # non-head versions were stamped before being displaced
        assert ver is None or ver.ts != UNSET_TS
    return None if ver is None else ver.val


def write_value(head_ref: AtomicRef, new_val: Any, clock: GlobalClock) -> bool:
    """Publish a new version unless the current payload already equals it.

    Returns False without writing when the latest payload == new_val (the
    no-op update / double-delete case), True once the new version is in and
    stamped.  The displaced head is always stamped first so only the chain
    head can ever be unstamped.
    """
    while True:
        cur = head_ref.value
        cur.stamp(clock)
        if cur.val == new_val:
            return False
        nxt = VersionedValue(new_val, UNSET_TS, cur)
        if head_ref.compare_and_swap(cur, nxt):
            nxt.stamp(clock)
            return True

