"""Terminal-case folding in the kernel (hypothesis over random BDDs).

``ite``, ``and_`` and ``or_`` answer their terminal cases — a constant
operand, equal operands, ``ite(f, TRUE, FALSE)`` — before the ITE walk.
A folded call must return the node the walk returns, create no node,
write no computed-table entry and, with stats on, not count as an ITE
call.
"""

from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager
from repro.bdd.manager import FALSE, TRUE
from tests.bdd.test_ops_oracle import NUM_VARS, all_assignments, exprs

ORACLE = {
    "and_": lambda a, b: a & b,
    "or_": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "xnor": lambda a, b: 1 - (a ^ b),
}


def truth_table(manager, node):
    return [manager.evaluate(node, a) for a in all_assignments()]


def operand_pool(manager, e1, e2):
    """Two random functions plus both constants: every pair drawn from
    the pool mixes terminal and non-terminal cases."""
    return [FALSE, TRUE, e1.bdd(manager), e2.bdd(manager)]


def is_terminal_binary(f, g):
    return f < 2 or g < 2 or f == g


def is_terminal_ite(f, g, h):
    return f < 2 or g == h or (g, h) == (TRUE, FALSE)


@given(exprs(), exprs(), st.data())
@settings(max_examples=150, deadline=None)
def test_connectives_match_the_truth_table_oracle(e1, e2, data):
    manager = BddManager(num_vars=NUM_VARS)
    pool = operand_pool(manager, e1, e2)
    f, g, h = (data.draw(st.sampled_from(pool)) for _ in range(3))
    tf, tg, th = (truth_table(manager, n) for n in (f, g, h))
    for name, oracle in ORACLE.items():
        result = getattr(manager, name)(f, g)
        assert truth_table(manager, result) == [
            oracle(a, b) for a, b in zip(tf, tg)
        ], name
    result = manager.ite(f, g, h)
    assert truth_table(manager, result) == [
        b if a else c for a, b, c in zip(tf, tg, th)
    ]


@given(exprs(), exprs(), st.data())
@settings(max_examples=150, deadline=None)
def test_terminal_cases_touch_neither_store_nor_table(e1, e2, data):
    manager = BddManager(num_vars=NUM_VARS)
    pool = operand_pool(manager, e1, e2)
    f, g, h = (data.draw(st.sampled_from(pool)) for _ in range(3))
    calls = [
        (manager.and_, (f, g), (f, g, FALSE), is_terminal_binary(f, g)),
        (manager.or_, (f, g), (f, TRUE, g), is_terminal_binary(f, g)),
        (manager.ite, (f, g, h), (f, g, h), is_terminal_ite(f, g, h)),
    ]
    for connective, args, triple, terminal in calls:
        if not terminal:
            continue
        before = (manager.num_nodes, manager.cache_size)
        result = connective(*args)
        assert (manager.num_nodes, manager.cache_size) == before
        # the node the full walk returns for the same triple
        assert result == manager._ite_walk(*triple)


@given(exprs(), exprs(), st.data())
@settings(max_examples=150, deadline=None)
def test_stats_count_only_calls_that_reach_the_walk(e1, e2, data):
    manager = BddManager(num_vars=NUM_VARS)
    pool = operand_pool(manager, e1, e2)
    manager.enable_stats()
    f, g, h = (data.draw(st.sampled_from(pool)) for _ in range(3))
    calls = [
        (manager.and_, (f, g), is_terminal_binary(f, g)),
        (manager.or_, (f, g), is_terminal_binary(f, g)),
        (manager.ite, (f, g, h), is_terminal_ite(f, g, h)),
    ]
    for connective, args, terminal in calls:
        before = manager.stat_ite_calls
        connective(*args)
        assert manager.stat_ite_calls == before + (0 if terminal else 1)


def test_equal_operands_fold_to_the_operand():
    manager = BddManager(num_vars=2)
    f = manager.xor(manager.mk_var(0), manager.mk_var(1))
    manager.enable_stats()
    before = (manager.num_nodes, manager.cache_size, manager.stat_ite_calls)
    assert manager.and_(f, f) == f
    assert manager.or_(f, f) == f
    assert manager.ite(f, TRUE, FALSE) == f
    assert manager.ite(TRUE, f, FALSE) == f
    assert manager.ite(FALSE, TRUE, f) == f
    assert manager.ite(manager.mk_var(0), f, f) == f
    assert (
        manager.num_nodes, manager.cache_size, manager.stat_ite_calls
    ) == before
