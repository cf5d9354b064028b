"""Memory-pressure mechanics: eviction, hook chaining, RSS surrender.

The manager primitives come first; the budgets that drive them live in
:class:`~repro.runtime.governor.ResourceGovernor`.
"""

import pytest

from repro.bdd import BddManager, MemoryPressureExceeded, SpaceLimitExceeded
from repro.runtime import ResourceGovernor


def populate_cache(manager, n_pairs=6):
    f = manager.const(1)
    for i in range(n_pairs):
        f = manager.and_(
            f, manager.xor(manager.mk_var(2 * i), manager.mk_var(2 * i + 1))
        )
    return f


# ----------------------------------------------------------------------
# manager primitives the governor builds on
# ----------------------------------------------------------------------
def test_evict_cache_full_and_partial():
    manager = BddManager(num_vars=12)
    populate_cache(manager)
    full = manager.cache_size
    assert full > 0

    dropped = manager.evict_cache(0.5)
    assert dropped == full // 2
    assert manager.cache_size == full - dropped

    remaining = manager.cache_size
    dropped = manager.evict_cache(1.0)
    assert dropped == remaining
    assert manager.cache_size == 0


def test_eviction_never_changes_results():
    manager = BddManager(num_vars=12)
    f = populate_cache(manager)
    count_before = manager.sat_count(f)
    manager.evict_cache(1.0)
    g = populate_cache(manager)  # recompute with a cold cache
    assert g == f
    assert manager.sat_count(f) == count_before


def test_collect_suspends_alloc_hook():
    manager = BddManager(num_vars=8)
    f = populate_cache(manager, n_pairs=3)

    def exploding_hook():
        raise AssertionError("hook fired during collect()")

    manager.alloc_hook = exploding_hook
    translate, (f2,) = manager.collect([f], return_roots=True)
    assert translate[f] == f2
    # the hook is restored afterwards, not dropped
    assert manager.alloc_hook is exploding_hook


# ----------------------------------------------------------------------
# the governor's memory checks (every allocation: stride 1)
# ----------------------------------------------------------------------
@pytest.fixture
def every_allocation(monkeypatch):
    monkeypatch.setattr("repro.runtime.governor._CLOCK_STRIDE", 1)


def test_governor_evicts_cache_over_budget(every_allocation):
    events = []
    governor = ResourceGovernor(cache_budget=4)
    governor.on_evict = events.append
    manager = BddManager(num_vars=16)
    governor.attach_manager(manager)
    populate_cache(manager, n_pairs=8)
    assert events
    assert all(e["action"] == "evict" for e in events)
    assert sum(e["dropped"] for e in events) == manager.stat_entries_evicted


def test_governor_eviction_chains_after_existing_hook(every_allocation):
    manager = BddManager(num_vars=16)
    fired = []
    manager.alloc_hook = lambda: fired.append(1)
    events = []
    governor = ResourceGovernor(cache_budget=4)
    governor.on_evict = events.append
    governor.attach_manager(manager)
    populate_cache(manager, n_pairs=6)
    # the pre-existing hook (the bdd.alloc failpoint installs one) kept
    # firing on every allocation while the governor also did its work
    assert len(fired) == governor.nodes_allocated > 0
    assert events


def test_hard_rss_surrenders_with_space_limit_subclass(every_allocation):
    governor = ResourceGovernor(rss_budget=100, rss_sampler=lambda: 95)
    manager = BddManager(num_vars=16)
    governor.attach_manager(manager)
    with pytest.raises(MemoryPressureExceeded) as exc:
        populate_cache(manager, n_pairs=8)
    # the surrender reuses the space-limit unwind path
    assert isinstance(exc.value, SpaceLimitExceeded)
    assert exc.value.limit == 90
    assert exc.value.requested == 95
    assert governor.peak_rss == 95
