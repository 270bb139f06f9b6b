"""Heap-backed :class:`WarmPool` ≡ linear-scan :class:`ReferenceWarmPool`.

The speed pass rebuilt the pool's expiry, MRU reuse, and capacity eviction
on heaps with lazy invalidation; the original linear implementation is kept
in-tree as the executable specification. These tests drive both through
identical operation sequences — randomized churn, expiry boundaries,
eviction tie-breaks, and fleet-budget cross-tenant eviction — and assert
bit-identical observable behaviour: leases, stats, and container sets.
"""

import math

import numpy as np
import pytest

from repro.serving.fleet import FleetBudget
from repro.serving.pool import WarmPool, WarmPoolConfig
from tests.serving._spec import ReferenceWarmPool

pytestmark = pytest.mark.serving

TIERS = (512.0, 1024.0, 2048.0, 4096.0)


def snapshot(pool):
    """Every observable of a pool: containers (id, tier, free_at) + stats."""
    return (
        sorted(
            (c.container_id, c.memory_mb, c.free_at)
            for c in pool._containers.values()
        ),
        (pool.stats.cold_starts, pool.stats.warm_starts,
         pool.stats.expired, pool.stats.evicted),
    )


def drive_both(config, script):
    """Run one op script against both implementations, asserting identical
    leases at every step; returns the two pools for final inspection."""
    heap_pool, ref_pool = WarmPool(config), ReferenceWarmPool(config)
    for step, (op, *args) in enumerate(script):
        if op == "acquire":
            now, tier = args
            a = heap_pool.acquire(now, tier)
            b = ref_pool.acquire(now, tier)
            assert (a is None) == (b is None), f"step {step}: grant mismatch"
            if a is not None:
                assert (a.container_id, a.cold, a.cold_delay) == (
                    b.container_id, b.cold, b.cold_delay
                ), f"step {step}: lease mismatch"
        elif op == "release":
            cid, now = args
            heap_pool.release(cid, now)
            ref_pool.release(cid, now)
        elif op == "inspect":
            (now,) = args
            assert heap_pool.live_containers(now) == ref_pool.live_containers(now)
            assert heap_pool.warm_containers(now) == ref_pool.warm_containers(now)
    assert snapshot(heap_pool) == snapshot(ref_pool)
    return heap_pool, ref_pool


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_churn(self, seed):
        rng = np.random.default_rng(seed)
        config = WarmPoolConfig(keep_alive_s=5.0, max_containers=8)
        script = []
        held = []
        now = 0.0
        for _ in range(3000):
            now += float(rng.exponential(0.5))
            roll = rng.random()
            if roll < 0.55:
                tier = TIERS[int(rng.integers(len(TIERS)))]
                script.append(("acquire", now, tier))
                held.append(len(script) - 1)
            elif roll < 0.9 and held:
                held.pop(int(rng.integers(len(held))))
                script.append(("release", None, now))
            else:
                script.append(("inspect", now))

        # Replay against both pools, resolving release targets from the
        # actual lease each implementation granted (they must agree anyway).
        heap_pool, ref_pool = WarmPool(config), ReferenceWarmPool(config)
        heap_leases, ref_leases = {}, {}
        for idx, (op, *args) in enumerate(script):
            if op == "acquire":
                t, tier = args
                a, b = heap_pool.acquire(t, tier), ref_pool.acquire(t, tier)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.container_id == b.container_id
                    assert a.cold == b.cold
                    heap_leases[idx], ref_leases[idx] = a, b
            elif op == "release":
                _, t = args
                if heap_leases:
                    k = next(iter(heap_leases))
                    heap_pool.release(heap_leases.pop(k).container_id, t)
                    ref_pool.release(ref_leases.pop(k).container_id, t)
            else:
                (t,) = args
                assert heap_pool.live_containers(t) == ref_pool.live_containers(t)
                assert heap_pool.warm_containers(t) == ref_pool.warm_containers(t)
        assert snapshot(heap_pool) == snapshot(ref_pool)


class TestExpiryBoundary:
    def test_idle_exactly_keep_alive_is_not_expired(self):
        # Expiry fires strictly after keep_alive: now - free_at > keep.
        config = WarmPoolConfig(keep_alive_s=5.0)
        script = [
            ("acquire", 0.0, 2048.0),
            ("release", 0, 1.0),
            ("inspect", 6.0),       # idle exactly 5.0 — still warm
            ("acquire", 6.0, 2048.0),
        ]
        heap_pool, ref_pool = drive_both(config, script)
        assert heap_pool.stats.warm_starts == 1
        assert heap_pool.stats.expired == 0

    def test_just_past_keep_alive_is_expired(self):
        config = WarmPoolConfig(keep_alive_s=5.0)
        script = [
            ("acquire", 0.0, 2048.0),
            ("release", 0, 1.0),
            ("inspect", 6.0 + 1e-9),
            ("acquire", 6.0 + 1e-9, 2048.0),  # cold again
        ]
        heap_pool, ref_pool = drive_both(config, script)
        assert heap_pool.stats.expired == 1
        assert heap_pool.stats.cold_starts == 2

    def test_rereleased_container_outlives_stale_heap_entry(self):
        # A container released, reused warm, and released again must be
        # expired off its *latest* free_at, not the orphaned older entry.
        config = WarmPoolConfig(keep_alive_s=5.0)
        script = [
            ("acquire", 0.0, 2048.0),
            ("release", 0, 1.0),
            ("acquire", 2.0, 2048.0),   # warm reuse; entry at 1.0 goes stale
            ("release", 0, 8.0),
            ("inspect", 7.0),           # stale 1.0 entry would expire here
            ("acquire", 12.0, 2048.0),  # idle 4.0 < keep — warm
        ]
        heap_pool, ref_pool = drive_both(config, script)
        assert heap_pool.stats.warm_starts == 2
        assert heap_pool.stats.expired == 0


class TestCapacityEviction:
    def test_oldest_idle_evicted_first(self):
        config = WarmPoolConfig(max_containers=2)
        script = [
            ("acquire", 0.0, 512.0),    # cid 0
            ("acquire", 0.0, 512.0),    # cid 1
            ("release", 0, 1.0),
            ("release", 1, 2.0),
            ("acquire", 3.0, 4096.0),   # full: evicts cid 0 (oldest idle)
        ]
        heap_pool, ref_pool = drive_both(config, script)
        assert heap_pool.stats.evicted == 1
        assert 0 not in heap_pool._containers
        assert 1 in heap_pool._containers

    def test_eviction_tie_breaks_on_container_id(self):
        config = WarmPoolConfig(max_containers=2)
        script = [
            ("acquire", 0.0, 512.0),
            ("acquire", 0.0, 512.0),
            ("release", 1, 1.0),
            ("release", 0, 1.0),        # identical free_at
            ("acquire", 2.0, 4096.0),   # tie → lowest container id evicted
        ]
        heap_pool, ref_pool = drive_both(config, script)
        assert 0 not in heap_pool._containers
        assert 1 in heap_pool._containers

    def test_mru_tie_breaks_on_highest_id(self):
        config = WarmPoolConfig()
        script = [
            ("acquire", 0.0, 2048.0),
            ("acquire", 0.0, 2048.0),
            ("release", 0, 1.0),
            ("release", 1, 1.0),        # identical free_at
            ("acquire", 2.0, 2048.0),   # MRU tie → highest container id
        ]
        heap_pool, ref_pool = drive_both(config, script)
        # Both picked the same container; pin which one the spec picks.
        grant = heap_pool.acquire(2.0, 2048.0)  # the remaining warm one
        assert grant.container_id == 0

    def test_all_busy_full_pool_denies(self):
        config = WarmPoolConfig(max_containers=2)
        script = [
            ("acquire", 0.0, 512.0),
            ("acquire", 0.0, 512.0),
            ("acquire", 1.0, 512.0),    # both busy → None from both pools
        ]
        drive_both(config, script)


class _BudgetedHeap(WarmPool):
    def __init__(self, config, budget):
        super().__init__(config)
        self.budget = budget
        budget.register(self)

    def _admit_cold(self, now):
        return self.budget.admit_cold(now)


class _BudgetedRef(ReferenceWarmPool):
    def __init__(self, config, budget):
        super().__init__(config)
        self.budget = budget
        budget.register(self)

    def _admit_cold(self, now):
        return self.budget.admit_cold(now)


class TestFleetBudgetCrossTenantEviction:
    """The fleet budget reaches *into* pools to evict the globally
    least-recently-freed idle container. For the heap pool that deletion
    bypasses the heaps entirely — lazy invalidation must absorb it."""

    def _drive(self, pool_cls):
        budget = FleetBudget(max_containers=2)
        cfg = WarmPoolConfig(keep_alive_s=math.inf)
        a = pool_cls(cfg, budget)
        b = pool_cls(cfg, budget)
        trail = []

        def acq(pool, tag, now, tier):
            lease = pool.acquire(now, tier)
            trail.append((tag, None if lease is None
                          else (lease.container_id, lease.cold)))
            return lease

        la = acq(a, "a", 0.0, 512.0)   # fleet: 1 live
        lb = acq(b, "b", 0.0, 1024.0)  # fleet: 2 live (at cap)
        a.release(la.container_id, 1.0)
        b.release(lb.container_id, 3.0)
        # At the cap with two idle fleet-wide (a@1.0 older than b@3.0): a
        # cold start in b must evict tenant *a*'s container, the global
        # least-recently-freed victim.
        lease = acq(b, "b", 4.0, 2048.0)
        assert lease is not None and lease.cold
        acq(b, "b", 4.0, 1024.0)                  # b's own idle, warm reuse
        assert acq(a, "a", 4.5, 512.0) is None    # all busy fleet-wide
        b.release(lease.container_id, 5.0)
        # a's heaps still hold entries for its evicted container; they must
        # be skipped, and the cold start evicts b's idle 2048 instead.
        final = acq(a, "a", 6.0, 512.0)
        assert final is not None and final.cold
        trail.append(("a-evicted", a.stats.evicted))
        trail.append(("b-evicted", b.stats.evicted))
        trail.append(snapshot(a))
        trail.append(snapshot(b))
        return trail

    def test_heap_matches_reference(self):
        assert self._drive(_BudgetedHeap) == self._drive(_BudgetedRef)

    def test_victim_is_cross_tenant(self):
        trail = self._drive(_BudgetedHeap)
        assert ("a-evicted", 1) in trail   # tenant a lost its container
        assert ("b-evicted", 1) in trail   # then b's idle went to a
