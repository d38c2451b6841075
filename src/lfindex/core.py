"""Shared primitives: atomic cells, list links, versioned values, the clock.

Every mutation anywhere in the index funnels through a single-word
compare-and-swap on one of the cell types below, or through ``dcss``,
``splice`` and ``freeze``: ``dcss`` swaps a model node's child cells,
``splice`` stores into a bin's list links, and ``freeze`` sets the freeze
word of either owner, after which neither store succeeds.  ``EMPTY``, the
one cell all empty slots share, is never written, so it needs no ABA
argument.  (The one plain store, a bin list's walk hint, is advisory.)
CPython has no native CAS, so the primitives emulate it with a small stripe
of module-level locks: each critical section is a constant-time
compare+store, never nested, and never calls back into user code.  Plain
attribute loads are atomic under the GIL and are used for all reads.

Payload convention: payloads are ints; ``None`` is the Absent marker written
by deletions.  A key that was never inserted has no version at all, which
timestamped reads surface as the distinct ``TOMBSTONE`` sentinel.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, NamedTuple, Optional

KEY_MAX = 2**63 - 1  # keys are unsigned 63-bit: [0, 2**63 - 1]
UNSET_TS = -1

_STRIPES = 128
_CAS_LOCKS = tuple(threading.Lock() for _ in range(_STRIPES))

# Test instrumentation: called as hook(cell, success) from inside the stripe
# lock, so per-cell event order in the hook equals the true CAS order.
# ``dcss``, ``splice`` and ``freeze`` report as described on them.
_cas_hook: Optional[Callable[[object, bool], None]] = None


def set_cas_hook(hook: Optional[Callable[[object, bool], None]]) -> None:
    global _cas_hook
    _cas_hook = hook


def _lock_for(obj: object) -> threading.Lock:
    return _CAS_LOCKS[(id(obj) >> 4) % _STRIPES]


class AtomicRef:
    """A reference cell with load / CAS as indivisible steps.

    CAS compares by identity, so logically-equal but distinct objects fail
    the swap.  Combined with immutable link/version objects and refcounted
    reclamation this rules out ABA: a stale expected object cannot reappear
    as the current value.

    The shared end link END is the exception that needs an argument: one
    object sits in many cells at once.  It stays ABA-safe because a list
    link only gains nodes, so once a cell leaves END it never holds END
    again.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any = None):
        self.value = value

    def load(self) -> Any:
        return self.value

    def compare_and_swap(self, expected: Any, new: Any) -> bool:
        hook = _cas_hook
        with _lock_for(self):
            ok = self.value is expected
            if ok:
                self.value = new
            if hook is not None:
                hook(self, ok)
        return ok


class AtomicInt:
    """An integer cell with load / CAS / fetch_add as indivisible steps."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def load(self) -> int:
        return self.value

    def compare_and_swap(self, expected: int, new: int) -> bool:
        hook = _cas_hook
        with _lock_for(self):
            ok = self.value == expected
            if ok:
                self.value = new
            if hook is not None:
                hook(self, ok)
        return ok

    def fetch_add(self, delta: int = 1) -> int:
        with _lock_for(self):
            old = self.value
            self.value = old + delta
        return old


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
    double-compare single-swap (Harris, Fraser & Pratt, DISC 2002) under
    the owner's stripe lock, like ``freeze``.  The hook sees the cell put in
    or found, or a frozen owner: a failure names what a success changed."""
    hook = _cas_hook
    with _lock_for(owner):
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


def splice(owner: Any, cell: AtomicRef, expected: Any, new: Any) -> bool:
    """Store ``new`` in ``cell`` iff ``owner.frozen`` is None and the cell
    holds ``expected``: the guarded store every list link write of a bin
    makes, under the owner's stripe lock, like ``dcss``.  The hook sees the
    cell written or found, or a frozen owner."""
    hook = _cas_hook
    with _lock_for(owner):
        if owner.frozen is not None:
            target, ok = owner, False
        else:
            target = cell
            ok = cell.value is expected
            if ok:
                cell.value = new
        if hook is not None:
            hook(target, ok)
    return ok


def freeze(owner: Any, job: Any) -> None:
    """Set ``owner.frozen`` to ``job`` unless it is already set.  Terminal:
    no later ``dcss`` or ``splice`` on the owner succeeds.  The hook sees
    ``(owner, ok)``."""
    hook = _cas_hook
    with _lock_for(owner):
        ok = owner.frozen is None
        if ok:
            owner.frozen = job
        if hook is not None:
            hook(owner, ok)


class VersionedValue:
    """One version in a per-key chain: payload, write timestamp, older tail.

    ``ts`` starts unset (-1) and is assigned exactly once via ``try_init_ts``;
    ``val`` and ``vnext`` never change after construction.  Only the chain
    head may have an unset ts: writers assign the displaced head's ts before
    publishing a new one on top of it.
    """

    __slots__ = ("val", "ts", "vnext")

    def __init__(self, val: Any, ts: int = UNSET_TS, vnext: "VersionedValue | None" = None):
        self.val = val
        self.ts = ts
        self.vnext = vnext

    def try_init_ts(self, t: int) -> bool:
        # CAS ts: UNSET -> t.  Equality compare is fine: ts is only ever
        # written through this method after construction.
        with _lock_for(self):
            if self.ts == UNSET_TS:
                self.ts = t
                return True
            return False

    def __repr__(self):
        return f"VersionedValue(val={self.val!r}, ts={self.ts})"


class GlobalClock:
    """Logical time shared by the whole index; starts at 0."""

    __slots__ = ("now",)

    def __init__(self, start: int = 0):
        self.now = AtomicInt(start)

    def read(self) -> int:
        return self.now.load()

    def read_and_bump(self) -> int:
        """Read the clock and try once to advance it; returns the read value.

        A failed bump means some concurrent reader already advanced past the
        value we read, which serves the same purpose, so no retry.
        """
        t = self.now.load()
        self.now.compare_and_swap(t, t + 1)
        return t


class _Tombstone:
    __slots__ = ()

    def __repr__(self):
        return "TOMBSTONE"


#: Returned by timestamped reads when no version existed at the query time.
#: Distinct from None, which is the Absent payload written by deletions.
TOMBSTONE = _Tombstone()


def init_ts(version: VersionedValue, clock: GlobalClock) -> None:
    """Assign ``version.ts`` from a fresh clock read if still unset.

    The clock is read immediately before the single CAS attempt; on a lost
    race the winner's (also fresh) read stands.  Idempotent.
    """
    if version.ts != UNSET_TS:
        return
    version.try_init_ts(clock.read())


def read_value_latest(head_ref: AtomicRef, clock: GlobalClock) -> Any:
    """Latest payload of a version chain; assigns the head's ts if unset."""
    ver = head_ref.load()
    if ver.ts == UNSET_TS:
        ver.try_init_ts(clock.read())
    return ver.val


def read_value_at(head_ref: AtomicRef, ts: int, clock: GlobalClock) -> Any:
    """Payload as of logical time ``ts``.

    Walks past versions written after ``ts``; returns the payload of the
    newest version with assigned time <= ts (None means deleted-at-ts), or
    TOMBSTONE when the whole chain is newer than ``ts``.
    """
    ver = head_ref.load()
    if ver.ts == UNSET_TS:
        ver.try_init_ts(clock.read())
    while ver is not None and ver.ts > ts:
        ver = ver.vnext
        # non-head versions were stamped before being displaced
        assert ver is None or ver.ts != UNSET_TS
    if ver is None:
        return TOMBSTONE
    return ver.val


def write_value(head_ref: AtomicRef, new_val: Any, clock: GlobalClock) -> bool:
    """Publish a new version unless the current payload already equals it.

    Returns False without writing when the latest payload == new_val (the
    no-op update / double-delete case), True once the new version is in and
    stamped.  The displaced head is always stamped first so only the chain
    head can ever be unstamped.
    """
    while True:
        cur = head_ref.load()
        init_ts(cur, clock)
        if cur.val == new_val:
            return False
        nxt = VersionedValue(new_val, UNSET_TS, cur)
        if head_ref.compare_and_swap(cur, nxt):
            init_ts(nxt, clock)
            return True

