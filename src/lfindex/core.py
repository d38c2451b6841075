"""Shared primitives: guarded steps, versioned values, the clock.

Every mutation anywhere in the index funnels through one of five guarded
steps: ``dcss`` stores a model node's child in its slot, ``splice``
publishes a bin's next array, ``write_head`` stores a key's new
chain head in its owner's array, ``freeze`` sets the freeze word of an
owner (a bin or a model node), and ``AtomicRef.compare_and_swap``
advances the clock.  CPython has no native CAS, so the steps emulate it
with one module lock, ``_LOCK``, which every guarded step takes, so each
excludes every other.  Each critical section is a constant-time compare
and its stores, never nested, and never calls back into user code.  The
design assumes the GIL: plain attribute loads are atomic under it and
serve for all reads, and since it lets no two steps run at once anyway,
one lock costs no parallelism that finer locks would keep.

The clock rule: a version's timestamp is the clock's reading at the step
that publishes it.  A writer reads the clock, builds its version with
that reading as ``ts``, and publishes it with ``write_head``, ``splice``
or, for a key's first bin, ``dcss``; each of these also compares the
clock's cell with the object the writer read, so the step fails, and the
writer reads again and retries, if a scan's bump landed in between.  A
version is complete when it is built and no field of it changes after.
A scan's ``read_and_bump`` of ``ts`` returns once the clock has left
``ts``, so it splits all writes in two: those with a timestamp at or
before ``ts``, published before that moment, and those after it,
published later.

The freeze rule: once an owner is frozen, nothing in it changes.  A
key's chain head sits in its owner's array (a model node's ``versions``,
or the heads half of a bin's ``items``), and ``dcss``, ``splice`` and
``write_head`` each fail once the owner's freeze word is set, so a write
lands before the freeze, and is collected, or fails and helps finish the
rebuild that froze the owner before it retries in the replacement.  A
bin's array obeys the same rule once a splice replaces it:
``write_head`` also compares ``items`` with the array the writer
bisected, and ``splice`` compares the bin's ``writes`` count with the
one the inserter read before it copied, so no write lands in an old
array or is lost to a copy made before it.  Keys in a published array
never change; only ``write_head`` changes a head slot.  Every rebuild
reuses the collected heads, so the frozen original and its replacement
hold one ``VersionedValue`` per key.

Readers never loop and never write.  A search or a scan reads through
frozen structures and replaced arrays: each structure it loads was
current at some moment after it began, and holds every key's value as of
the moment it stopped being current, which a read there may answer.  A
scan bumps the clock, then loads a structure; a write into a replacement
lands after the install, so after that load, and so after the clock left
``ts``: a scan that reads a frozen structure misses no version at or
before its ``ts``.

Every compare is by identity, and no compared field can take back an
object it once held (no ABA).  A slot leaves ``EMPTY`` once, and every
other child a ``dcss`` stores is fresh.  A bin's ``items`` only takes
arrays its splices copied, so each is fresh.  A head slot takes only
fresh versions, and the clock's cell only rises (``GlobalClock``).

Payload convention: payloads are ints; ``None`` is the Absent marker written
by deletions.  A read as of a time answers the payload of the newest version
no newer than that time, or None: deleted then and not yet written read
alike.
"""

from __future__ import annotations

import operator
import threading
from collections import namedtuple
from typing import Any, Callable, Iterable, Optional

KEY_MAX = 2**63 - 1  # keys are unsigned 63-bit: [0, 2**63 - 1]


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
# ``dcss``, ``splice``, ``write_head`` and ``freeze`` report as described
# on them; a step that lost to a bump of the clock names the clock's cell.
_cas_hook: Optional[Callable[[object, bool], None]] = None


def set_cas_hook(hook: Optional[Callable[[object, bool], None]]) -> None:
    global _cas_hook
    _cas_hook = hook


class AtomicRef:
    """A reference cell with load / CAS as indivisible steps: a load is a
    plain read of ``value``, atomic under the GIL, and a CAS is one compare
    and one store under ``_LOCK``.  The index builds one for its clock, and
    one for ``EMPTY``; ``load`` is kept for the benchmark's probes, which
    call it on a slot's child.

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
    was written when a slot was a cell and a list was linked nodes:
    ``load()`` on a slot's child returns the object itself (``EMPTY``, a
    cell, answers None), and ``head`` on a bin returns a throwaway chain
    of view nodes over its array, each with ``item``, ``version`` and
    ``next``, ending at ``END``; ``target`` on a view node returns the
    node, or None on ``END``.  A chain head, which the probes reach
    through ``version`` or ``search_bin``, answers ``load()`` and
    ``version`` with itself.  No module
    of the index calls them; ROADMAP item 1, which gives the benchmark
    ``index.stats()``, removes them."""

    __slots__ = ()

    def load(self) -> Any:
        return self

    @property
    def target(self) -> Any:
        return None if self is END else self

    @property
    def version(self) -> Any:
        return self

    @property
    def head(self) -> Any:
        items = self.items
        n = len(items) >> 1
        node = END
        for i in range(n - 1, -1, -1):
            node = _View(items[i], items[n + i], node)
        return node


class _View(namedtuple("_View", "item version next"), BenchReads):
    """One key of a list as ``head`` shows it: key, chain head, next view."""

    __slots__ = ()


class _End(BenchReads):
    """The end of every chain of view nodes."""

    __slots__ = ()

    def __repr__(self):
        return "END"


END = _End()

#: The one child of every empty slot, which nothing writes (ABA argument in
#: the module docstring).
EMPTY = AtomicRef()


def dcss(owner: Any, i: int, expected: Any, new: Any,
         clock: "GlobalClock | None" = None, t: Any = None) -> bool:
    """Store ``new`` in ``owner.children[i]`` iff ``owner.frozen`` is None
    and the slot holds ``expected``, and, for a fresh bin whose version
    carries timestamp ``t``, the ``clock`` still reads ``t``: a
    double-compare single-swap (Harris, Fraser & Pratt, DISC 2002) in one
    step under ``_LOCK``.  A compaction's install carries no new version
    and passes no clock.  The hook sees the child stored or found, a
    frozen owner or the clock's cell: a failure on the slot names what a
    success stored."""
    hook = _cas_hook
    with _LOCK:
        if owner.frozen is not None:
            target, ok = owner, False
        elif clock is not None and clock.now.value is not t:
            target, ok = clock.now, False
        else:
            target = owner.children[i]
            ok = target is expected
            if ok:
                target = owner.children[i] = new
        if hook is not None:
            hook(target, ok)
    return ok


def splice(owner: Any, expected: list, writes: int, new: list,
           clock: "GlobalClock", t: Any) -> bool:
    """Publish ``new``, a fresh copy of ``expected`` with one key added
    whose version carries timestamp ``t``, as the ``items`` of the bin
    ``owner`` iff ``owner.frozen`` is None, ``owner.items`` is ``expected``,
    ``owner.writes`` is still ``writes``, read before the copy was made, so
    no head write to ``expected`` is lost to the copy, and the ``clock``
    still reads ``t``: one step under ``_LOCK``.  A failure writes nothing.
    The hook sees the bin's array after the step, the one stored or the
    one found, frozen owner or not, or the clock's cell when only the
    clock moved, so a hook target that is a ``list`` is always a splice,
    and a failure on an owner not frozen names what a success stored."""
    hook = _cas_hook
    with _LOCK:
        target = owner.items
        ok = target is expected and owner.writes == writes and owner.frozen is None
        if ok and clock.now.value is not t:
            target, ok = clock.now, False
        if ok:
            target = owner.items = new
        if hook is not None:
            hook(target, ok)
    return ok


def write_head(owner: Any, heads: list, j: int, expected: Any, new: Any,
               clock: "GlobalClock", lst: Any = None) -> bool:
    """Store the version ``new`` in ``heads[j]``, a chain-head slot of
    ``owner``, iff ``owner.frozen`` is None, the slot holds ``expected``,
    the ``clock`` still reads ``new.ts`` and, for a slot of a bin, passed
    as ``lst`` (the owner itself), ``lst.items`` is still ``heads``, the
    array the writer bisected; a bin store also counts itself in
    ``lst.writes``.  ``heads`` is a model node's ``versions``, or a bin's
    ``items``, whose heads follow its keys.  One step under ``_LOCK``.  The hook sees the
    head stored or found, a frozen owner or the clock's cell, so a
    ``VersionedValue`` target is always a head write."""
    hook = _cas_hook
    with _LOCK:
        if owner.frozen is not None:
            target, ok = owner, False
        elif clock.now.value is not new.ts:
            target, ok = clock.now, False
        else:
            target = heads[j]
            ok = target is expected and (lst is None or lst.items is heads)
            if ok:
                target = heads[j] = new
                if lst is not None:
                    lst.writes += 1
        if hook is not None:
            hook(target, ok)
    return ok


def freeze(owner: Any, job: Any) -> None:
    """Set ``owner.frozen`` to ``job`` unless it is already set, in one step
    under ``_LOCK``.  Terminal: no later ``dcss``, ``splice`` or
    ``write_head`` on the owner succeeds.  The hook sees ``(owner, ok)``."""
    hook = _cas_hook
    with _LOCK:
        ok = owner.frozen is None
        if ok:
            owner.frozen = job
        if hook is not None:
            hook(owner, ok)


class VersionedValue(BenchReads):
    """One version in a per-key chain: payload, write timestamp, older tail.
    The newest version, the chain head, sits in its owner's array.

    All three fields are final at construction: ``ts`` is the clock reading
    that the step publishing the version compares (module docstring), so
    timestamps never increase toward the tail.
    """

    __slots__ = ("val", "ts", "vnext")

    def __init__(self, val: Any, ts: int, vnext: "VersionedValue | None" = None):
        self.val = val
        self.ts = ts
        self.vnext = vnext

    def __repr__(self):
        return f"VersionedValue(val={self.val!r}, ts={self.ts})"


class GlobalClock:
    """Logical time shared by the whole index; starts at 0.

    ``now`` is an ``AtomicRef`` holding an int.  Its identity compares are
    sound because the clock only rises: the cell never takes back an int
    object it once held, so a bump from a stale read fails, and so does a
    publishing step whose writer read the clock before a bump."""

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


def read_value_at(head: VersionedValue, ts: int, clock: Any = None) -> Any:
    """Payload as of logical time ``ts``.

    Walks past versions written after ``ts``; returns the payload of the
    newest version at or before ``ts``, or None when that version is a
    delete or the whole chain is newer than ``ts``.  ``clock`` is unused:
    the benchmark's probe passes one, and keeps it until ROADMAP item 1.
    """
    ver = head
    while ver is not None and ver.ts > ts:
        ver = ver.vnext
    return None if ver is None else ver.val


def write_version(owner: Any, heads: list, j: int, new_val: Any,
                  clock: GlobalClock, lst: Any = None) -> Optional[bool]:
    """One attempt to put a version of payload ``new_val``, stamped with the
    clock's reading, on the chain whose head is ``heads[j]``, through
    ``write_head`` (same arguments).

    False without a write when the latest payload == new_val (the no-op
    update / double-delete case), True once the new version is in, and
    None when ``write_head`` failed: the owner froze, the array moved,
    another write won or a scan bumped the clock, and the caller retries.
    """
    t = clock.now.value
    cur = heads[j]
    if cur.val == new_val:
        return False
    if write_head(owner, heads, j, cur, VersionedValue(new_val, t, cur), clock, lst):
        return True
    return None
