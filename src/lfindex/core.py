"""Shared primitives: atomic cells, list links, versioned values, the clock.

Every mutation anywhere in the index funnels through a single-word
compare-and-swap on one of the cell types below, or through ``dcss``,
``splice``, ``freeze`` and ``VersionedValue.stamp``: ``dcss`` swaps a
model node's child cells, ``splice`` puts a new key into a bin's list,
``freeze`` sets the freeze word of either owner, after which neither
succeeds, and ``stamp`` sets a version's timestamp once.  ``EMPTY``, the
one cell all empty slots share, is never written, so it needs no ABA
argument.
CPython has no native CAS, so the primitives emulate it with one module
lock, ``_LOCK``, which every guarded step takes, so each excludes every
other.  Each critical section is a constant-time compare and its stores,
never nested, and never calls back into user code.  The design assumes
the GIL: plain attribute loads are atomic under it and serve for all
reads, and since it lets no two steps run at once anyway, one lock costs
no parallelism that finer locks would keep.

Payload convention: payloads are ints; ``None`` is the Absent marker written
by deletions.  A read as of a time answers the payload of the newest version
no newer than that time, or None: deleted then and not yet written read
alike.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, NamedTuple, Optional

KEY_MAX = 2**63 - 1  # keys are unsigned 63-bit: [0, 2**63 - 1]
UNSET_TS = -1

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
    the swap.  Combined with immutable link/version objects and refcounted
    reclamation this rules out ABA: a stale expected object cannot reappear
    as the current value.

    Two cells hold objects that are not fresh, and each needs an argument.
    The shared end link END sits in many cells at once, but a list only
    gains nodes, so once a cell leaves END it never holds END again.  The
    clock's cell holds ints, but the clock only rises (``GlobalClock``).
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


class Link(NamedTuple):
    """An immutable list link: the next node, or None past the tail."""

    target: Any


#: The end-of-list link, shared by every list tail (ABA argument in
#: AtomicRef), and the cell every empty child slot holds, which nothing writes.
END = Link(None)
EMPTY = AtomicRef()


def dcss(owner: Any, i: int, expected: Any, new: Any) -> bool:
    """Put a fresh cell holding ``new`` in ``owner.children[i]`` iff
    ``owner.frozen`` is None and the slot's cell holds ``expected``: a
    double-compare single-swap (Harris, Fraser & Pratt, DISC 2002) in one
    step under ``_LOCK``.  The hook sees the cell put in or found, or a
    frozen owner: a failure names what a success changed."""
    hook = _cas_hook
    with _LOCK:
        if owner.frozen is not None:
            target, ok = owner, False
        else:
            target = owner.children[i]
            ok = target.value is expected
            if ok:
                target = owner.children[i] = AtomicRef(new)
        if hook is not None:
            hook(target, ok)
    return ok


def splice(owner: Any, lst: Any, cell: AtomicRef, expected: Any, new: Any) -> bool:
    """Put the node ``new`` links to into the list ``lst`` of the bin
    ``owner`` iff ``owner.frozen`` is None and ``cell`` holds ``expected``:
    in one step under ``_LOCK``, point the node's next link at
    ``expected``, store ``new`` in the cell, make the node the list's hint
    and count it in ``lst.size`` and, for a child list, in ``owner.size``.
    A failure writes nothing.  The hook sees the cell written or found, or
    a frozen owner."""
    hook = _cas_hook
    with _LOCK:
        if owner.frozen is not None:
            target, ok = owner, False
        else:
            target = cell
            ok = cell.value is expected
            if ok:
                node = new.target
                node.next.value = expected
                cell.value = new
                lst.hint = node
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

