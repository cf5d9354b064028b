"""Variable reordering for the OBDD package.

The manager identifies variable *order* with variable *number*, so
reordering means transferring functions into a fresh manager under a
renumbering.  Two entry points:

* :func:`transfer` / :func:`reorder` — rebuild a set of functions under
  an explicit new order (returns the fresh manager, translated roots
  and the old-variable -> new-variable map),
* :func:`window_search` — a window-permutation minimisation heuristic
  (try every permutation of each sliding window of adjacent variables,
  keep the best), the classic lightweight alternative to sifting.

The fault simulator itself keeps its static interleaved order (the
variable-order ablation benchmark shows why); reordering is offered for
analysis workloads — reachable-state sets and detection functions that
outlive a simulation run.
"""

from itertools import permutations

from repro.bdd.manager import BddManager

_EXPAND = 0
_COMBINE = 1


def transfer(src, roots, dst, var_map):
    """Rebuild *roots* from manager *src* inside manager *dst*.

    *var_map* maps source variable numbers to destination variable
    numbers (identity for unmapped variables).  Returns the translated
    roots, in order.

    Iterative (explicit work stack, like the manager's own traversals):
    a transferred BDD can be a chain deeper than Python's recursion
    limit — a conjunction of a few thousand literals already is.
    """
    memo = {0: 0, 1: 1}

    def walk(root):
        tasks = [(_EXPAND, root)]
        results = []
        while tasks:
            tag, node = tasks.pop()
            if tag == _EXPAND:
                found = memo.get(node)
                if found is not None:
                    results.append(found)
                    continue
                tasks.append((_COMBINE, node))
                tasks.append((_EXPAND, src.low(node)))
                tasks.append((_EXPAND, src.high(node)))
            else:
                lo = results.pop()
                hi = results.pop()
                var = src.var(node)
                new_var = var_map.get(var, var)
                result = dst.ite(dst.mk_var(new_var), hi, lo)
                memo[node] = result
                results.append(result)
        return results[0]

    return [walk(root) for root in roots]


def reorder(manager, roots, new_order, node_limit=None):
    """Rebuild *roots* under *new_order* (old variable numbers, listed
    root-to-leaf).

    Returns ``(new_manager, new_roots, var_map)`` where ``var_map``
    maps each old variable number to its new number (= its position in
    *new_order*).
    """
    order = list(new_order)
    if sorted(order) != sorted(set(order)):
        raise ValueError("new_order contains duplicates")
    var_map = {old: position for position, old in enumerate(order)}
    missing = set()
    for root in roots:
        missing |= manager.support(root) - set(order)
    if missing:
        raise ValueError(f"new_order misses variables {sorted(missing)}")
    new_manager = BddManager(num_vars=len(order), node_limit=node_limit)
    new_roots = transfer(manager, roots, new_manager, var_map)
    return new_manager, new_roots, var_map


def window_search(manager, roots, window=3, passes=1):
    """Window-permutation reordering heuristic.

    Slides a window of *window* adjacent order positions over the
    current order, tries every permutation of the window, and keeps the
    arrangement with the smallest shared node count of *roots*.
    Returns ``(new_manager, new_roots, order)`` where *order* lists the
    ORIGINAL variable numbers in their final arrangement.
    """
    support = set()
    for root in roots:
        support |= manager.support(root)
    order = sorted(support)
    if not order:
        return manager, list(roots), order

    # candidate orders are always expressed in ORIGINAL variable
    # numbers and rebuilt from the original manager, so sizes stay
    # comparable and no renumbering chains accumulate
    current_order = list(order)
    best_size = manager.size(roots)

    for _pass in range(passes):
        improved = False
        for start in range(0, max(1, len(current_order) - window + 1)):
            head = current_order[:start]
            body = current_order[start:start + window]
            tail = current_order[start + window:]
            for perm in permutations(body):
                if list(perm) == body:
                    continue
                candidate = head + list(perm) + tail
                new_manager, new_roots, _ = reorder(
                    manager, roots, candidate
                )
                size = new_manager.size(new_roots)
                if size < best_size:
                    best_size = size
                    current_order = candidate
                    improved = True
        if not improved:
            break

    if current_order == order:
        return manager, list(roots), current_order
    final_manager, final_roots, _ = reorder(manager, roots,
                                            current_order)
    return final_manager, final_roots, current_order
