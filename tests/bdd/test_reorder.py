"""Variable reordering: semantics preservation and size improvement."""

import itertools

import pytest

from repro.bdd import BddManager
from repro.bdd.reorder import reorder, transfer, window_search


def dependent_pairs_function(manager, n_pairs, interleaved):
    """AND of XNOR pairs — the textbook order-sensitivity example:
    linear when partners are adjacent, exponential when separated."""
    f = manager.const(1)
    for i in range(n_pairs):
        if interleaved:
            a, b = 2 * i, 2 * i + 1
        else:
            a, b = i, n_pairs + i
        f = manager.and_(
            f, manager.xnor(manager.mk_var(a), manager.mk_var(b))
        )
    return f


def test_transfer_preserves_semantics():
    src = BddManager(num_vars=4)
    f = src.or_(
        src.and_(src.mk_var(0), src.mk_var(3)),
        src.xor(src.mk_var(1), src.mk_var(2)),
    )
    dst = BddManager(num_vars=4)
    var_map = {0: 3, 1: 2, 2: 1, 3: 0}  # reverse the order
    (g,) = transfer(src, [f], dst, var_map)
    for bits in itertools.product((0, 1), repeat=4):
        a_src = dict(enumerate(bits))
        a_dst = {var_map[v]: bit for v, bit in a_src.items()}
        assert src.evaluate(f, a_src) == dst.evaluate(g, a_dst)


def test_reorder_pairs_function_shrinks():
    n = 5
    bad = BddManager(num_vars=2 * n)
    f_bad = dependent_pairs_function(bad, n, interleaved=False)
    size_bad = bad.size(f_bad)
    # bring partners together: order a0,b0,a1,b1,...
    new_order = []
    for i in range(n):
        new_order += [i, n + i]
    good, (f_good,), var_map = reorder(bad, [f_bad], new_order)
    size_good = good.size(f_good)
    assert size_good < size_bad
    assert size_good <= 3 * n + 2  # linear in n
    # semantics preserved
    for bits in itertools.product((0, 1), repeat=2 * n):
        a_old = dict(enumerate(bits))
        a_new = {var_map[v]: bit for v, bit in a_old.items()}
        assert bad.evaluate(f_bad, a_old) == good.evaluate(f_good, a_new)


def test_reorder_rejects_bad_orders():
    m = BddManager(num_vars=3)
    f = m.and_(m.mk_var(0), m.mk_var(2))
    with pytest.raises(ValueError, match="duplicates"):
        reorder(m, [f], [0, 0, 2])
    with pytest.raises(ValueError, match="misses"):
        reorder(m, [f], [0, 1])


def test_window_search_finds_good_order():
    n = 4
    bad = BddManager(num_vars=2 * n)
    f = dependent_pairs_function(bad, n, interleaved=False)
    before = bad.size(f)
    new_manager, (g,), order = window_search(
        bad, [f], window=3, passes=4
    )
    after = new_manager.size([g])
    assert after <= before
    # the pairs function has huge blocked-order BDDs; the heuristic
    # must make real progress
    assert after < before


def test_window_search_identity_on_optimal_input():
    m = BddManager(num_vars=6)
    f = dependent_pairs_function(m, 3, interleaved=True)
    new_manager, (g,), order = window_search(m, [f], window=2)
    assert new_manager.size([g]) <= m.size(f)


def test_window_search_constant_function():
    m = BddManager(num_vars=4)
    manager, roots, order = window_search(m, [m.const(1)])
    assert roots == [1]
    assert order == []


def test_multiple_roots_share_after_transfer():
    src = BddManager(num_vars=4)
    f = src.xor(src.mk_var(0), src.mk_var(2))
    g = src.not_(f)
    dst, (f2, g2), _ = reorder(src, [f, g], [2, 0])
    assert dst.not_(f2) == g2  # canonicity carried over


def test_transfer_survives_deep_chains():
    # a conjunction of a few thousand literals is one long low-chain;
    # the recursive transfer used to hit Python's recursion limit here
    n = 3000
    src = BddManager(num_vars=n)
    f = src.and_many([src.mk_var(v) for v in range(n)])
    dst = BddManager(num_vars=n)
    (g,) = transfer(src, [f], dst, {})
    assert dst.size(g) == src.size(f) == n + 2
    assert dst.evaluate(g, {v: 1 for v in range(n)}) == 1
    assert dst.evaluate(g, {0: 0, **{v: 1 for v in range(1, n)}}) == 0
