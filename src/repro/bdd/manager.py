"""A reduced ordered binary decision diagram (ROBDD) manager.

This is a from-scratch pure-Python implementation of the OBDD package
the paper builds on [Bryant 1986]:

* nodes live in flat parallel arrays (``_var``, ``_low``, ``_high``);
  a BDD is an integer index into those arrays,
* node 0 is the constant FALSE, node 1 the constant TRUE,
* a unique table guarantees canonicity — two functions are equal iff
  their indices are equal,
* all operations go through :meth:`ite` with a computed table; the
  terminal cases of ``ite``, ``and_`` and ``or_`` are folded before
  the walk and touch neither the store nor the table,
* the manager enforces a configurable **node limit** and raises
  :class:`~repro.bdd.errors.SpaceLimitExceeded` when a new node would
  exceed it (the paper uses a 30,000-node limit to trigger the hybrid
  simulator's three-valued fallback),
* garbage collection is *rebuild-based*: :meth:`collect` keeps only the
  nodes reachable from caller-supplied roots and returns an old->new
  index translation.

Variable identity is a plain integer; smaller integers are closer to
the root.  :mod:`repro.bdd.ordering` provides the interleaved x/y
numbering used by the MOT strategy.
"""

from repro import failpoints as _failpoints
from repro.bdd.errors import SpaceLimitExceeded, VariableOrderError

FALSE = 0
TRUE = 1

_TERMINAL_VAR = 1 << 40


def _injected_alloc_failure():
    """Alloc hook body of the ``bdd.alloc`` failpoint.

    Raises :class:`MemoryError` when the armed policy trips — the
    stand-in for the interpreter failing an allocation at an awkward
    node.  The campaign treats it like a space overflow: surrender,
    fall back, stay conservative (see ``Campaign._step_symbolic_group``).
    """
    if _failpoints.fire("bdd.alloc"):
        raise MemoryError("injected: failpoint bdd.alloc")

# Tags for the explicit task stacks of the iterative traversals below.
# All recursive structural operations (ite, restrict, compose, rename,
# quantification) are implemented with a work stack — BDD depth grows
# with the variable count, and deep circuits used to force a global
# sys.setrecursionlimit() hack.
_EXPAND = 0
_COMBINE = 1


class _CountingCache(dict):
    """A computed table that counts hit/miss on :meth:`get`.

    Installed by :meth:`BddManager.enable_cache_stats` only — the
    default table is a plain dict so the disabled path pays nothing.
    Counts live on the owning manager, not the table, so eviction and
    GC (which replace the table object) never lose them.
    """

    __slots__ = ("owner",)

    def __init__(self, owner):
        super().__init__()
        self.owner = owner

    def get(self, key, default=None):
        found = dict.get(self, key, default)
        if found is None:
            self.owner.stat_cache_misses += 1
        else:
            self.owner.stat_cache_hits += 1
        return found


class BddManager:
    """Owner of a node store, unique table and computed table.

    **Invalidation contract.**  :meth:`collect` rebuilds the node store
    in place: after it returns, *every* node index held outside the
    manager is stale unless mapped through the returned old->new
    translation (or obtained via ``return_roots=True``).  The computed
    table is cleared as part of the rebuild — callers never need a
    separate :meth:`clear_cache`.  Evaluating, combining or collecting
    again with an untranslated index is undefined behaviour (it will
    silently address a different function).  :meth:`clear_cache` and
    :meth:`evict_cache`, by contrast, are always safe: the computed
    table is pure memoisation and dropping any part of it changes
    memory use, never results.
    """

    def __init__(self, num_vars=0, node_limit=None):
        self.num_vars = num_vars
        self.node_limit = node_limit
        self._var = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._low = [FALSE, TRUE]
        self._high = [FALSE, TRUE]
        self._unique = {}
        self._cache = {}
        self.peak_nodes = 2
        # optional zero-argument callback invoked after every node
        # allocation; the campaign runtime uses it to meter total node
        # consumption and to poll a wall-clock deadline at fine grain.
        # The ``bdd.alloc`` failpoint rides the same slot — installed
        # only when armed at construction, so a disabled build executes
        # exactly the uninstrumented mk() instruction stream (consumers
        # that attach their own hooks chain rather than overwrite).
        self.alloc_hook = (
            _injected_alloc_failure
            if _failpoints.is_armed("bdd.alloc")
            else None
        )
        # lifetime operation stats.  Per-operation counting (ite calls,
        # cache hit/miss) is opt-in via enable_stats() and implemented
        # by swapping in a counting table / wrapping ite, so the
        # disabled hot path executes exactly the uninstrumented code.
        # nodes_created needs no hook at all: it is derived from the
        # live store plus nodes retired by GC (_nodes_dropped).
        self.stat_ite_calls = 0
        self.stat_gc_runs = 0
        self.stat_cache_evictions = 0
        self.stat_entries_evicted = 0
        self.stat_cache_hits = 0
        self.stat_cache_misses = 0
        self._nodes_dropped = 0
        self._count_cache = False

    # ------------------------------------------------------------------
    # node store
    # ------------------------------------------------------------------
    def mk(self, var, low, high):
        """Find-or-create the node ``(var, low, high)`` (reduced)."""
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        idx = len(self._var)
        if self.node_limit is not None and idx + 1 > self.node_limit:
            raise SpaceLimitExceeded(self.node_limit, idx + 1)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = idx
        if idx + 1 > self.peak_nodes:
            self.peak_nodes = idx + 1
        if self.alloc_hook is not None:
            self.alloc_hook()
        return idx

    def var(self, index):
        """Decision variable of node *index* (terminals: a huge sentinel)."""
        return self._var[index]

    def low(self, index):
        return self._low[index]

    def high(self, index):
        return self._high[index]

    def is_terminal(self, index):
        return index < 2

    @property
    def num_nodes(self):
        """Total number of live nodes including the two terminals."""
        return len(self._var)

    def fresh_var(self):
        """Allocate a new variable index at the bottom of the order."""
        var = self.num_vars
        self.num_vars += 1
        return var

    def mk_var(self, var):
        """The projection function of variable *var*."""
        if var >= self.num_vars:
            self.num_vars = var + 1
        return self.mk(var, FALSE, TRUE)

    def mk_nvar(self, var):
        """The negated projection function of variable *var*."""
        if var >= self.num_vars:
            self.num_vars = var + 1
        return self.mk(var, TRUE, FALSE)

    def const(self, value):
        """TRUE or FALSE for a truthy/falsy *value*."""
        return TRUE if value else FALSE

    def is_const(self, f):
        """True when *f* is one of the two constant functions."""
        return f < 2

    def const_value(self, f):
        """0/1 for a constant function, None otherwise."""
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1
        return None

    # ------------------------------------------------------------------
    # core operation: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f, g, h):
        """``(f AND g) OR (NOT f AND h)`` — the universal connective.

        Terminal cases (``f`` constant, ``g == h``, ``(g, h) == (TRUE,
        FALSE)``) are answered before any work stack exists; they
        create no node and write no computed-table entry.  Everything
        else goes to :meth:`_ite_walk`.
        """
        if f < 2:
            return g if f == TRUE else h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        return self._ite_walk(f, g, h)

    def _ite_walk(self, f, g, h):
        """The ITE recursion proper, for a non-terminal ``(f, g, h)``.

        Iterative: an explicit task stack of ``(_EXPAND, f, g, h)`` and
        ``(_COMBINE, top, key)`` entries with a parallel result stack.
        An expand pushes its combine first, then the 0-branch, then the
        1-branch (so the 1-branch is evaluated first); the combine pops
        the 0-result and then the 1-result.
        """
        cache = self._cache
        tasks = [(_EXPAND, f, g, h)]
        results = []
        while tasks:
            task = tasks.pop()
            if task[0] == _EXPAND:
                _tag, f, g, h = task
                if f == TRUE:
                    results.append(g)
                    continue
                if f == FALSE:
                    results.append(h)
                    continue
                if g == h:
                    results.append(g)
                    continue
                if g == TRUE and h == FALSE:
                    results.append(f)
                    continue
                key = ("ite", f, g, h)
                found = cache.get(key)
                if found is not None:
                    results.append(found)
                    continue
                var_f = self._var[f]
                var_g = self._var[g]
                var_h = self._var[h]
                top = min(var_f, var_g, var_h)
                f1, f0 = (
                    (self._high[f], self._low[f]) if var_f == top else (f, f)
                )
                g1, g0 = (
                    (self._high[g], self._low[g]) if var_g == top else (g, g)
                )
                h1, h0 = (
                    (self._high[h], self._low[h]) if var_h == top else (h, h)
                )
                tasks.append((_COMBINE, top, key))
                tasks.append((_EXPAND, f0, g0, h0))
                tasks.append((_EXPAND, f1, g1, h1))
            else:
                _tag, top, key = task
                r0 = results.pop()
                r1 = results.pop()
                result = self.mk(top, r0, r1)
                cache[key] = result
                results.append(result)
        return results[0]

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def not_(self, f):
        return self.ite(f, FALSE, TRUE)

    def and_(self, f, g):
        # ite(f, g, FALSE) with its terminal cases folded: a constant
        # operand or ``f == g`` answers without reaching the walk
        if f < 2:
            return g if f == TRUE else FALSE
        if g == FALSE:
            return FALSE
        if g == TRUE or g == f:
            return f
        return self._ite_walk(f, g, FALSE)

    def or_(self, f, g):
        # ite(f, TRUE, g), folded like and_
        if f < 2:
            return TRUE if f == TRUE else g
        if g == TRUE:
            return TRUE
        if g == FALSE or g == f:
            return f
        return self._ite_walk(f, TRUE, g)

    def xor(self, f, g):
        return self.ite(f, self.not_(g), g)

    def xnor(self, f, g):
        """The equivalence ``f == g`` used by the detection functions."""
        return self.ite(f, g, self.not_(g))

    def implies(self, f, g):
        return self.ite(f, g, TRUE)

    def and_many(self, fs):
        result = TRUE
        for f in fs:
            result = self.and_(result, f)
            if result == FALSE:
                return FALSE
        return result

    def or_many(self, fs):
        result = FALSE
        for f in fs:
            result = self.or_(result, f)
            if result == TRUE:
                return TRUE
        return result

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def restrict(self, f, var, value):
        """Cofactor of *f* with *var* fixed to *value* (0 or 1)."""
        cache = self._cache
        tasks = [(_EXPAND, f)]
        results = []
        while tasks:
            task = tasks.pop()
            if task[0] == _EXPAND:
                node = task[1]
                if self.is_terminal(node):
                    results.append(node)
                    continue
                var_f = self._var[node]
                if var_f > var:
                    results.append(node)
                    continue
                key = ("res", node, var, value)
                found = cache.get(key)
                if found is not None:
                    results.append(found)
                    continue
                if var_f == var:
                    result = self._high[node] if value else self._low[node]
                    cache[key] = result
                    results.append(result)
                    continue
                tasks.append((_COMBINE, var_f, key))
                tasks.append((_EXPAND, self._low[node]))
                tasks.append((_EXPAND, self._high[node]))
            else:
                _tag, var_f, key = task
                r0 = results.pop()
                r1 = results.pop()
                result = self.mk(var_f, r0, r1)
                cache[key] = result
                results.append(result)
        return results[0]

    def compose(self, f, var, g):
        """Substitute function *g* for variable *var* inside *f*."""
        cache = self._cache
        tasks = [(_EXPAND, f)]
        results = []
        while tasks:
            task = tasks.pop()
            if task[0] == _EXPAND:
                node = task[1]
                if self.is_terminal(node):
                    results.append(node)
                    continue
                var_f = self._var[node]
                if var_f > var:
                    results.append(node)
                    continue
                key = ("cmp", node, var, g)
                found = cache.get(key)
                if found is not None:
                    results.append(found)
                    continue
                if var_f == var:
                    result = self.ite(g, self._high[node], self._low[node])
                    cache[key] = result
                    results.append(result)
                    continue
                tasks.append((_COMBINE, var_f, key))
                tasks.append((_EXPAND, self._low[node]))
                tasks.append((_EXPAND, self._high[node]))
            else:
                _tag, var_f, key = task
                r0 = results.pop()
                r1 = results.pop()
                result = self.ite(self.mk(var_f, FALSE, TRUE), r1, r0)
                cache[key] = result
                results.append(result)
        return results[0]

    def rename(self, f, mapping):
        """Rename variables according to the dict *mapping*.

        The mapping must be monotone with respect to the variable order
        (the MOT x->y rename under interleaved ordering is).  Raises
        :class:`VariableOrderError` when the order would be violated.
        """
        if not mapping:
            return f
        items = sorted(mapping.items())
        for (a1, b1), (a2, b2) in zip(items, items[1:]):
            if not (a1 < a2 and b1 < b2):
                raise VariableOrderError(
                    f"rename is not monotone: {a1}->{b1}, {a2}->{b2}"
                )
        frozen = tuple(items)
        return self._rename_walk(f, mapping, frozen)

    def _rename_walk(self, f, mapping, frozen):
        cache = self._cache
        tasks = [(_EXPAND, f)]
        results = []
        while tasks:
            task = tasks.pop()
            if task[0] == _EXPAND:
                node = task[1]
                if self.is_terminal(node):
                    results.append(node)
                    continue
                key = ("ren", node, frozen)
                found = cache.get(key)
                if found is not None:
                    results.append(found)
                    continue
                var_f = self._var[node]
                new_var = mapping.get(var_f, var_f)
                tasks.append((_COMBINE, var_f, new_var, key))
                tasks.append((_EXPAND, self._low[node]))
                tasks.append((_EXPAND, self._high[node]))
            else:
                _tag, var_f, new_var, key = task
                r0 = results.pop()
                r1 = results.pop()
                for child in (r1, r0):
                    if (
                        not self.is_terminal(child)
                        and self._var[child] <= new_var
                    ):
                        raise VariableOrderError(
                            f"rename {var_f}->{new_var} breaks the order"
                        )
                result = self.mk(new_var, r0, r1)
                cache[key] = result
                results.append(result)
        return results[0]

    def exists(self, f, variables):
        """Existential quantification over an iterable of variables."""
        result = f
        for var in sorted(set(variables), reverse=True):
            result = self._quant_one(result, var, True)
        return result

    def forall(self, f, variables):
        """Universal quantification over an iterable of variables."""
        result = f
        for var in sorted(set(variables), reverse=True):
            result = self._quant_one(result, var, False)
        return result

    def _quant_one(self, f, var, existential):
        cache = self._cache
        tag = "ex" if existential else "fa"
        tasks = [(_EXPAND, f)]
        results = []
        while tasks:
            task = tasks.pop()
            if task[0] == _EXPAND:
                node = task[1]
                if self.is_terminal(node):
                    results.append(node)
                    continue
                var_f = self._var[node]
                if var_f > var:
                    results.append(node)
                    continue
                key = (tag, node, var)
                found = cache.get(key)
                if found is not None:
                    results.append(found)
                    continue
                if var_f == var:
                    hi, lo = self._high[node], self._low[node]
                    result = (
                        self.or_(hi, lo) if existential else self.and_(hi, lo)
                    )
                    cache[key] = result
                    results.append(result)
                    continue
                tasks.append((_COMBINE, var_f, key))
                tasks.append((_EXPAND, self._low[node]))
                tasks.append((_EXPAND, self._high[node]))
            else:
                _tag, var_f, key = task
                r0 = results.pop()
                r1 = results.pop()
                result = self.mk(var_f, r0, r1)
                cache[key] = result
                results.append(result)
        return results[0]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def evaluate(self, f, assignment):
        """Evaluate *f* under ``assignment`` (mapping var -> 0/1)."""
        node = f
        while not self.is_terminal(node):
            node = (
                self._high[node]
                if assignment[self._var[node]]
                else self._low[node]
            )
        return node  # FALSE == 0, TRUE == 1

    def support(self, f):
        """The set of variables *f* depends on."""
        seen = set()
        result = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            result.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return result

    def size(self, roots):
        """Shared node count reachable from *roots* (terminals included)."""
        if isinstance(roots, int):
            roots = [roots]
        seen = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if not self.is_terminal(node):
                stack.append(self._low[node])
                stack.append(self._high[node])
        return len(seen)

    def sat_count(self, f, variables=None):
        """Number of satisfying assignments over *variables*.

        *variables* defaults to ``range(num_vars)`` and must cover the
        support of *f*.
        """
        if variables is None:
            variables = range(self.num_vars)
        order = sorted(set(variables))
        position = {v: i for i, v in enumerate(order)}
        missing = self.support(f) - set(order)
        if missing:
            raise ValueError(f"variables {missing} in support but not counted")
        total = len(order)
        cache = {}

        def count(node, depth):
            # number of sat assignments over order[depth:]
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1 << (total - depth)
            key = (node, depth)
            found = cache.get(key)
            if found is not None:
                return found
            var_pos = position[self._var[node]]
            skipped = var_pos - depth
            result = (
                count(self._low[node], var_pos + 1)
                + count(self._high[node], var_pos + 1)
            ) << skipped
            cache[key] = result
            return result

        return count(f, 0)

    def pick_assignment(self, f, variables=None):
        """One satisfying assignment of *f* as a dict, or None if f==0.

        Variables outside the support are assigned 0 when *variables*
        is given, otherwise omitted.
        """
        if f == FALSE:
            return None
        assignment = {}
        node = f
        while not self.is_terminal(node):
            var = self._var[node]
            if self._high[node] != FALSE:
                assignment[var] = 1
                node = self._high[node]
            else:
                assignment[var] = 0
                node = self._low[node]
        if variables is not None:
            for var in variables:
                assignment.setdefault(var, 0)
        return assignment

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    @property
    def cache_size(self):
        """Number of computed-table entries (memory-pressure signal)."""
        return len(self._cache)

    def clear_cache(self):
        """Drop the computed table (keeps all nodes)."""
        if self._cache:
            self.stat_cache_evictions += 1
            self.stat_entries_evicted += len(self._cache)
        self._cache.clear()

    def evict_cache(self, fraction=1.0):
        """Drop the oldest *fraction* of computed-table entries.

        Dicts preserve insertion order, so the front of the table holds
        the entries least likely to be re-hit by the current operation
        mix.  Safe at any point, including mid-operation: in-flight
        traversals hold their own reference to the table and only lose
        memoisation, never correctness.  Returns the number of entries
        dropped.
        """
        if fraction >= 1.0:
            dropped = len(self._cache)
            self._cache.clear()
        else:
            dropped = int(len(self._cache) * fraction)
            for key in list(self._cache.keys())[:dropped]:
                del self._cache[key]
        if dropped:
            self.stat_cache_evictions += 1
            self.stat_entries_evicted += dropped
        return dropped

    def collect(self, roots, return_roots=False):
        """Rebuild the store keeping only nodes reachable from *roots*.

        Returns a dict translating old node indices (for the supplied
        roots and everything reachable from them) to new indices.  All
        other old indices become invalid; the computed table is cleared
        (see the class docstring for the full invalidation contract).
        With ``return_roots=True``, returns ``(translate, new_roots)``
        where ``new_roots`` lists the translated *roots* in order — the
        common case of collecting and immediately rebinding a root set.

        The allocation hook is suspended for the duration of the
        rebuild: GC re-creates nodes that were already metered when
        first allocated, and a budget or pressure callback firing
        mid-rebuild would unwind with the store half-translated.
        """
        roots = list(roots)
        reachable = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in reachable or node < 2:
                continue
            reachable.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])

        order = sorted(reachable)  # children have smaller indices
        old_var, old_low, old_high = self._var, self._low, self._high
        self._var = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._low = [FALSE, TRUE]
        self._high = [FALSE, TRUE]
        self._unique = {}
        self._cache = self._make_cache()
        self.stat_gc_runs += 1
        # retire this epoch's allocations; the rebuild's survivors are
        # credited back below so nodes_created stays a true lifetime
        # total (each allocation counted once, GC re-creation never)
        self._nodes_dropped += len(old_var) - 2
        translate = {FALSE: FALSE, TRUE: TRUE}
        hook, self.alloc_hook = self.alloc_hook, None
        try:
            for node in order:
                translate[node] = self.mk(
                    old_var[node],
                    translate[old_low[node]],
                    translate[old_high[node]],
                )
        finally:
            self.alloc_hook = hook
            self._nodes_dropped -= len(self._var) - 2
        if return_roots:
            return translate, [translate[root] for root in roots]
        return translate

    # ------------------------------------------------------------------
    # operation statistics
    # ------------------------------------------------------------------
    def _make_cache(self):
        """A fresh computed table of the currently configured kind."""
        return _CountingCache(self) if self._count_cache else {}

    @property
    def stat_nodes_created(self):
        """Lifetime node allocations (GC re-creation not counted)."""
        return self._nodes_dropped + len(self._var) - 2

    def enable_stats(self):
        """Count ITE walks and computed-table hits/misses from now on.

        Opt-in because both cost a Python dispatch per operation: the
        computed table is swapped for a counting subclass and
        ``_ite_walk`` is shadowed by a counting wrapper.  Only calls
        that reach the walk are counted; a connective answered by its
        terminal cases is not.  With stats off the hot path executes
        exactly the uninstrumented code.  The observability layer
        enables this when tracing or metrics are requested.  Existing
        table entries are preserved.
        """
        if self._count_cache:
            return
        self._count_cache = True
        cache = _CountingCache(self)
        cache.update(self._cache)
        self._cache = cache
        inner = self._ite_walk  # the (bound) uncounted implementation

        def counted_walk(f, g, h):
            self.stat_ite_calls += 1
            return inner(f, g, h)

        self._ite_walk = counted_walk

    def stats(self):
        """Lifetime operation counters plus current store levels."""
        return {
            "ite_calls": self.stat_ite_calls,
            "nodes_created": self.stat_nodes_created,
            "cache_hits": self.stat_cache_hits,
            "cache_misses": self.stat_cache_misses,
            "cache_evictions": self.stat_cache_evictions,
            "entries_evicted": self.stat_entries_evicted,
            "gc_runs": self.stat_gc_runs,
            "peak_nodes": self.peak_nodes,
            "num_nodes": self.num_nodes,
            "cache_size": len(self._cache),
        }

    def __repr__(self):
        return (
            f"BddManager({self.num_vars} vars, {self.num_nodes} nodes, "
            f"limit {self.node_limit})"
        )
