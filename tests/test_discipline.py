"""The write discipline of ``lfindex``, checked on its source with ``ast``.

Every safety argument in ``core``, ``bins`` and ``index`` rests on one
rule: a store to a field that threads share sits inside one guarded step,
or inside the builder of an object no other thread can reach yet.  The
table below states, once, which function may store which shared field and
why.  A second table states which functions may take each guarded step,
and a third which may rebuild a frozen structure or help a compaction.
A loaded array's keys never change: the one in-place store into a loaded
array is ``core.write_head``'s store of a chain head.
The next checks hold the one lock to what the ``core`` docstring claims:
``core`` makes it once and no other module names it, every guarded step
takes it, and no critical section nests another or calls code outside
``core``, save the test hook.  The last keeps the benchmark's accessors
(``core.BenchReads``) out of the index's own code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lfindex"

#: The fields that threads share once an object is published.
FIELDS = {"items", "size", "writes", "frozen", "children", "versions",
          "value", "ts", "vnext", "now"}

#: function -> (shared fields it may store, why the store is safe)
WRITERS = {
    "core.AtomicRef.__init__": (
        {"value"}, "a new cell is private until a guarded step publishes it"),
    "core.AtomicRef.compare_and_swap": (
        {"value"}, "the CAS: one compare and one store under the one lock"),
    "core.dcss": (
        {"children"},
        "the one slot writer: under the one lock, only while the owner is not frozen"),
    "core.splice": (
        {"items", "size"},
        "publishes a list's next array and counts its key under the one lock, only while the bin is not frozen"),
    "core.write_head": (
        {"writes"},
        "stores a chain head in its owner's array and counts a list's head writes under the one lock, only while the owner is not frozen"),
    "core.freeze": (
        {"frozen"}, "the one freeze-word writer: under the one lock, once"),
    "core.VersionedValue.__init__": (
        {"ts", "vnext"}, "a version is private until a write_head, splice, install or build publishes it"),
    "core.VersionedValue.stamp": (
        {"ts"}, "sets an unset ts once, under the one lock"),
    "core.GlobalClock.__init__": (
        {"now"}, "the clock's cell is made once, with its index"),
    "bins.OneLevelBin.__init__": (
        {"items", "size", "writes", "frozen"},
        "a list is private until an install or a split publishes it"),
    "bins.TwoLevelBin.__init__": (
        {"children", "size", "frozen"}, "a split bin is private until its install"),
    "index.ModelNode.__init__": (
        {"versions", "children", "frozen"},
        "a model node is private until its install or its build returns"),
    "index.LearnedIndex.__init__": (
        {"children"}, "the header's one slot gets the root before the index is returned"),
}

#: guarded step -> {function that may call it: why it is the one caller}
CALLERS = {
    "dcss": {
        "index.LearnedIndex._install":
            "the one writer of child slots; a move lost to a freeze helps the compaction",
    },
    "splice": {
        "bins.insert_bin": "the one way a key enters a list, in a copy of the array it loaded",
    },
    "write_head": {
        "core.write_version": "the one chain write: a payload write puts one version on its key's chain",
    },
    "freeze": {
        "bins.freeze_bin": "a bin's freeze word is True, whoever freezes it",
        "index.LearnedIndex.help_compact":
            "a model node's freeze word is the job of the compaction that froze it",
    },
    "compare_and_swap": {
        "core.GlobalClock.read_and_bump": "a scan moves the clock past the time it reads",
    },
}

#: rebuild step -> {function that may call it: why}: one job replaces every
#: frozen structure, and it is the one place that helps a compaction; one
#: constructor gives every node its segments
REBUILDS = {
    "olb_to_tlb": {
        "index.LearnedIndex.help_compact": "a split is the rebuild of a frozen one-level bin",
    },
    "ModelNode": {
        "index.LearnedIndex.build": "the first root is built once, with the index",
        "index.LearnedIndex.__init__": "the header is built once, with the index, and never replaced",
        "index.LearnedIndex.help_compact":
            "every retrain and compaction builds its one node in the one job",
    },
    "segment_root": {
        "index.ModelNode.__init__":
            "the one node builder: every node's segments are segment_root under eps_target",
        "acceptance.criterion_2_model_soundness":
            "checks the segmentation's residual bound and its search against bisect",
        "acceptance.criterion_3_fit_determinism.race":
            "the sequential reference that every raced node's segments must equal",
    },
    "fit_linear": {
        "acceptance.criterion_2_model_soundness":
            "the flat-table probe: search over one line of a whole key set agrees with bisect",
    },
    "_install": {
        "index.LearnedIndex.insert": "a first insert publishes a fresh bin in an empty slot",
        "index.LearnedIndex.help_compact": "the one job installs what it rebuilt",
    },
    "help_compact": {
        "index.LearnedIndex.help_make_model": "a full bin is frozen and its top handed to the job",
        "index.LearnedIndex._install":
            "a move lost to a freeze finishes the compaction that froze the parent",
        "index.LearnedIndex._write_node_key":
            "a head write lost to a freeze finishes the compaction that froze the node",
    },
}

#: Methods that change a list in place.
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort",
            "reverse", "__setitem__", "__delitem__"}


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class _Scoped(ast.NodeVisitor):
    """Tracks the dotted name of the function being visited."""

    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped


class _Calls(_Scoped):
    """Every call to a name in ``table``, as (name, function, line)."""

    def __init__(self, module, table):
        super().__init__(module)
        self.table = table

    def visit_Call(self, node):
        step = _name(node.func)
        if step in self.table:
            self.found.append((step, ".".join(self.scope), node.lineno))
        self.generic_visit(node)


class _Stores(_Scoped):
    """Every store to a shared field, as (function, field, line)."""

    def _store(self, field, node):
        self.found.append((".".join(self.scope), field, node.lineno))

    def visit_Attribute(self, node):
        if node.attr in FIELDS and isinstance(node.ctx, (ast.Store, ast.Del)):
            self._store(node.attr, node)
        self.generic_visit(node)

    def visit_Subscript(self, node):  # x.children[i] = ..., or an alias's
        if isinstance(node.ctx, (ast.Store, ast.Del)) and _name(node.value) in FIELDS:
            self._store(_name(node.value), node)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in MUTATORS
                and isinstance(func.value, ast.Attribute) and func.value.attr in FIELDS):
            self._store(func.value.attr, node)
        if (_name(func) in ("setattr", "__setattr__") and len(node.args) >= 2
                and isinstance(node.args[-2], ast.Constant) and node.args[-2].value in FIELDS):
            self._store(node.args[-2].value, node)
        self.generic_visit(node)


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _found(visitor_class, *args, modules=None):
    found = []
    for module, tree in (modules or _modules()).items():
        visitor = visitor_class(module, *args)
        visitor.visit(tree)
        found += visitor.found
    return found


#: The guarded steps of ``core``: the functions that take the one lock.
GUARDED = ("AtomicRef.compare_and_swap", "dcss", "splice", "write_head", "freeze",
           "VersionedValue.stamp")

#: Names of the constructors of a lock.
LOCK_MAKERS = {"Lock", "RLock", "allocate_lock"}


def _is_lock_block(node):
    return isinstance(node, ast.With) and any(
        _name(item.context_expr) == "_LOCK" for item in node.items)


def _takes_a_lock(node):
    return any(_is_lock_block(n) for n in ast.walk(node))


def test_the_table_gives_each_writer_a_reason():
    for function, (fields, reason) in WRITERS.items():
        assert fields and fields <= FIELDS, function
        assert reason.strip() and "\n" not in reason, function


def _stray(stores):
    return [(fn, field, line) for fn, field, line in stores
            if field not in WRITERS.get(fn, ((), ""))[0]]


def test_every_shared_store_sits_in_its_allowed_writer():
    stores = _found(_Stores)
    stray = _stray(stores)
    assert stray == [], "stores to shared fields outside their guarded step or builder"
    used = {(fn, field) for fn, field, _ in stores}
    unused = [(fn, field) for fn, (fields, _) in WRITERS.items()
              for field in fields if (fn, field) not in used]
    assert unused == [], "table entries that no code uses"


def test_a_root_stored_outside_dcss_is_caught():
    # a mutant compaction that puts its node in the header's slot by a plain
    # store, where a frozen header or a lost race would go unseen
    source = (SRC / "index.py").read_text()
    install = "self._install(parent, slot, top, ModelNode(keys, versions, self.config.eps_target))"
    assert source.count(install) == 1
    store = "self.header.children[0] = ModelNode(keys, versions, self.config.eps_target)"
    modules = _modules()
    modules["index"] = ast.parse(source.replace(install, store))
    stray = _stray(_found(_Stores, modules=modules))
    assert [(fn, field) for fn, field, _ in stray] == [
        ("index.LearnedIndex.help_compact", "children")]


def test_an_array_stored_outside_splice_is_caught():
    # a mutant insert that publishes its copy by a plain store, where a
    # racing splice or a freeze would go unseen
    source = (SRC / "bins.py").read_text()
    made = "            new.insert(i, key)\n"
    assert source.count(made) == 1
    modules = _modules()
    for mutant in ("lst.items = new", "setattr(lst, 'items', new)", "bin_.items = new"):
        modules["bins"] = ast.parse(source.replace(made, made + " " * 12 + mutant + "\n"))
        stray = _stray(_found(_Stores, modules=modules))
        assert [(fn, field) for fn, field, _ in stray] == [
            ("bins.insert_bin", "items")], mutant


#: The shared arrays a reader loads: a list's keys and heads, a model
#: node's heads.  A parameter named ``heads`` takes either.
ARRAYS = {"items", "versions"}
ARRAY_PARAMS = {"heads"}


class _InPlace(_Scoped):
    """Every in-place change of a loaded array, as (function, line): a
    mutating call, an augmented assignment, or an item or slice store on
    ``x.items`` or ``x.versions``, on a name bound to one in the same
    function, or on a parameter named for one."""

    def __init__(self, module):
        super().__init__(module)
        self.loaded = set()  # names bound to a loaded array in this function

    def _scoped(self, node):
        args = node.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        saved, self.loaded = self.loaded, params & ARRAY_PARAMS
        super()._scoped(node)
        self.loaded = saved

    visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def _is_loaded(self, node):
        return ((isinstance(node, ast.Attribute) and node.attr in ARRAYS)
                or (isinstance(node, ast.Name) and node.id in self.loaded))

    def _hit(self, node):
        self.found.append((".".join(self.scope), node.lineno))

    def visit_Assign(self, node):
        if self._is_loaded(node.value):
            self.loaded |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if self._is_loaded(node.target):
            self._hit(node)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        if isinstance(node.ctx, (ast.Store, ast.Del)) and self._is_loaded(node.value):
            self._hit(node)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in MUTATORS
                and self._is_loaded(func.value)):
            self._hit(node)
        self.generic_visit(node)


def _head_store_line():
    """The line of ``write_head``'s one store of a chain head."""
    lines = (SRC / "core.py").read_text().splitlines()
    store = [n for n, line in enumerate(lines, 1) if "heads[j] = new" in line]
    assert len(store) == 1
    return store[0]


def test_no_code_changes_a_loaded_array_in_place():
    # a reader may hold any array a list or a node ever published: its keys
    # never change, and the one exception, write_head's store, replaces a
    # head under the lock, only while the owner is not frozen and the list
    # still holds the array
    assert _found(_InPlace) == [("core.write_head", _head_store_line())]


def test_an_array_changed_in_place_is_caught():
    source = (SRC / "bins.py").read_text()
    copied = "            new = items.copy()\n"
    assert source.count(copied) == 1
    modules = _modules()
    mutants = {line: source.replace(copied, " " * 12 + line + "\n" + copied)
               for line in ("items.insert(0, key)", "items.append(key)", "items += [key]",
                            "items[0] = key", "items[0:0] = [key]", "del items[0]",
                            "lst.items.append(key)", "lst.items[0] = key",
                            "items[n + i] = fresh")}
    # no copy made: the two inserts that follow change the loaded array
    mutants["new = items"] = source.replace(copied, "            new = items\n")
    for line, mutant in mutants.items():
        modules["bins"] = ast.parse(mutant)
        found = {fn for fn, _ in _found(_InPlace, modules=modules)}
        assert found == {"bins.insert_bin", "core.write_head"}, line


def test_a_head_stored_outside_write_head_is_caught():
    # a mutant node-key write that stores its version by a plain store,
    # where a freeze would go unseen, and one through a helper's parameter
    source = (SRC / "index.py").read_text()
    write = "        res = write_version(node, node.versions, i, value, self.clock)\n"
    assert source.count(write) == 1
    modules = _modules()
    modules["index"] = ast.parse(source.replace(
        write, write + "        node.versions[i] = VersionedValue(value)\n"))
    assert {fn for fn, _ in _found(_InPlace, modules=modules)} == {
        "index.LearnedIndex._write_node_key", "core.write_head"}
    assert [(fn, field) for fn, field, _ in _stray(_found(_Stores, modules=modules))] == [
        ("index.LearnedIndex._write_node_key", "versions")]
    modules = _modules()
    modules["index"] = ast.parse(source + (
        "\n\ndef put(heads, j, new):\n    heads[j] = new\n"))
    assert {fn for fn, _ in _found(_InPlace, modules=modules)} == {
        "index.put", "core.write_head"}


def _check_callers(table):
    for step, callers in table.items():
        assert callers, step
        for function, reason in callers.items():
            assert reason.strip() and "\n" not in reason, (step, function)
    calls = _found(_Calls, table)
    stray = [(step, fn, line) for step, fn, line in calls if fn not in table[step]]
    assert stray == [], "calls outside their named callers"
    used = {(step, fn) for step, fn, _ in calls}
    unused = [(step, fn) for step, callers in table.items()
              for fn in callers if (step, fn) not in used]
    assert unused == [], "table entries that no code uses"


def test_each_guarded_step_is_taken_only_by_its_named_callers():
    _check_callers(CALLERS)


def test_one_job_makes_every_rebuild_and_every_help():
    _check_callers(REBUILDS)


def test_only_stamp_sets_a_timestamp_after_construction():
    writers = {fn for fn, (fields, _) in WRITERS.items() if "ts" in fields}
    assert writers == {"core.VersionedValue.__init__", "core.VersionedValue.stamp"}


def test_core_makes_the_one_lock_and_no_other_module_names_it():
    modules = _modules()
    made = [(module, node.lineno) for module, tree in modules.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node.func) in LOCK_MAKERS]
    assert len(made) == 1, f"locks made at {made}"
    bound = [node for node in modules["core"].body
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
             and _name(node.value.func) in LOCK_MAKERS]
    assert len(bound) == 1 and [_name(t) for t in bound[0].targets] == ["_LOCK"], (
        "the one lock is not core's module-level _LOCK")
    for module, tree in modules.items():
        if module != "core":
            names = {n.name if isinstance(n, ast.alias) else _name(n)
                     for n in ast.walk(tree)}
            assert "_LOCK" not in names, module


class _LockBlocks(_Scoped):
    """Every ``with _LOCK:`` block, as (function, line)."""

    def visit_With(self, node):
        if _is_lock_block(node):
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def test_the_guarded_steps_and_only_they_take_the_one_lock():
    takers = {fn for fn, _ in _found(_LockBlocks)}
    assert takers == {f"core.{step}" for step in GUARDED}


def test_critical_sections_are_flat_and_stay_in_core():
    core = _modules()["core"]
    # core names a critical section may call: functions, and classes whose
    # constructor takes no lock
    callable_ = set()
    for node in core.body:
        if isinstance(node, ast.FunctionDef) and not _takes_a_lock(node):
            callable_.add(node.name)
        elif isinstance(node, ast.ClassDef):
            init = [n for n in node.body
                    if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
            if not any(_takes_a_lock(n) for n in init):
                callable_.add(node.name)
    blocks = [n for n in ast.walk(core) if _is_lock_block(n)]
    assert len(blocks) >= 5  # CAS, dcss, splice, freeze, stamp
    for block in blocks:
        for stmt in block.body:
            for node in ast.walk(stmt):
                assert not _is_lock_block(node), f"nested lock at line {node.lineno}"
                if isinstance(node, ast.Call):
                    # the test hook is the one call that leaves core
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else None
                    assert name == "hook" or name in callable_, (
                        f"line {node.lineno} calls {ast.unparse(func)} under a lock")


#: The accessors ``core.BenchReads`` keeps for ``lfbench/layers.py`` alone.
BENCH_READS = {"load", "target", "head", "version"}


class _BenchReads(_Scoped):
    """Every use of a benchmark accessor, as (function, name, line)."""

    def visit_Attribute(self, node):
        if node.attr in BENCH_READS:
            self.found.append((".".join(self.scope), node.attr, node.lineno))
        self.generic_visit(node)


def test_no_module_uses_the_benchmarks_accessors():
    # a slot holds its child and a list its array: the index reads those
    # fields, never through ``load``, ``target``, ``head`` or ``version``
    assert _found(_BenchReads) == []


def test_an_accessor_read_in_the_index_is_caught():
    source = (SRC / "bins.py").read_text()
    read = "    return items[n + i] if i < n and items[i] == key else None\n"
    assert source.count(read) == 1
    modules = _modules()
    for mutant, name in (("items[n + i].load()", "load"), ("items[n + i].target", "target"),
                         ("items[n + i].version", "version"),
                         ("list_for(bin_, key).head", "head")):
        modules["bins"] = ast.parse(source.replace(
            read, f"    return {mutant} if i < n and items[i] == key else None\n"))
        assert [(fn, attr) for fn, attr, _ in _found(_BenchReads, modules=modules)] == [
            ("bins.search_bin", name)], mutant
