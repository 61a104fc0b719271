"""The package's memos: bit-identical values, read-only arrays, byte bounds."""

import numpy as np
import pytest

from carlesonlab import multiplier as mult
from carlesonlab import oscillatory as osc
from carlesonlab._memo import BoundedCache
from carlesonlab.arithmetic import enumerate_shell

MEMOS = (osc._PANEL_RULES, mult._SUPPORT, mult._LAM_PHASES, mult._BETA_PHASES)

# (j, lam, beta) with alternating j, so the one-entry support memo evicts
POINTS = [(j, lam, beta) for lam, beta in ((0.3, 0.7), (0.25 + 1e-7, 0.5 - 3e-5))
          for j in (9, 12, 9, 12)] + [(12, 0.3, 0.1), (12, 0.3, 0.7)]


def clear_all():
    for cache in MEMOS:
        cache.cache_clear()


def stored_bytes(cache: BoundedCache) -> int:
    total = 0
    for val, _ in cache._data.values():
        total += sum(a.nbytes for a in (val if isinstance(val, tuple) else (val,)))
    return total


class TestBoundedCache:
    def test_hit_returns_the_stored_value(self):
        cache = BoundedCache(max_bytes=1024, max_entries=4)
        a = cache.get("a", lambda: np.arange(4.0))
        assert cache.get("a", lambda: pytest.fail("rebuilt on a hit")) is a
        assert not a.flags.writeable

    def test_least_recently_used_is_evicted_first(self):
        cache = BoundedCache(max_bytes=1024, max_entries=2)
        cache.get("a", lambda: np.zeros(2))
        cache.get("b", lambda: np.zeros(2))
        cache.get("a", lambda: np.zeros(2))
        cache.get("c", lambda: np.zeros(2))
        assert list(cache._data) == ["a", "c"]

    def test_byte_bound_evicts_and_oversize_values_pass_through(self):
        cache = BoundedCache(max_bytes=100, max_entries=8)
        cache.get("a", lambda: np.zeros(6))            # 48 bytes
        cache.get("b", lambda: (np.zeros(3), np.zeros(3)))
        cache.get("c", lambda: np.zeros(4))
        assert list(cache._data) == ["b", "c"] and cache.nbytes == 80
        big = cache.get("d", lambda: np.zeros(13))     # 104 bytes > bound
        assert not big.flags.writeable
        assert list(cache._data) == ["b", "c"] and cache.nbytes == 80


class TestBitIdentity:
    def test_m_j_warm_equals_cold(self):
        clear_all()
        cold = [mult.m_j(*p) for p in POINTS]
        warm = [mult.m_j(*p) for p in POINTS]
        assert warm == cold
        clear_all()
        assert [mult.m_j(*p) for p in reversed(POINTS)] == cold[::-1]

    def test_m_j_grid_unchanged_by_a_warm_support(self):
        clear_all()
        cold = mult.m_j_grid(9, 64)
        mult.m_j(9, 0.3, 0.2)
        np.testing.assert_array_equal(mult.m_j_grid(9, 64), cold)

    def test_dual_and_direct_warm_equal_cold(self):
        cases = [(osc._dual_scaled, 5000.0, 30.0, 1398),
                 (osc._dual_scaled, 1e5, -400.0, 2796),
                 (osc._direct_scaled, 50.0, 3.0, 40),
                 (osc._dual_scaled, 5000.0, 31.0, 1398)]
        osc._PANEL_RULES.cache_clear()
        cold = [f(X, Y, p) for f, X, Y, p in cases]
        warm = [f(X, Y, p) for f, X, Y, p in cases]
        osc._PANEL_RULES.cache_clear()
        assert warm == cold == [f(X, Y, p) for f, X, Y, p in cases]

    def test_decay_report_cold_equals_warm(self):
        kwargs = dict(grid=mult.GridSpec(G=128, strata=3))
        clear_all()
        cold = mult.decay_report([10], **kwargs)
        warm = mult.decay_report([10], **kwargs)
        assert warm == cold

    def test_e_j_with_shells_equals_e_j_without(self):
        shells = {1: enumerate_shell(1)}
        for lam, beta in ((0.5 + 1e-5, 0.5 - 2e-4), (0.31, 0.47)):
            assert mult.e_j(12, lam, beta, 0.1, shells=shells) \
                == mult.e_j(12, lam, beta, 0.1)


class TestMemoBounds:
    def test_cached_arrays_are_read_only(self):
        mult.m_j(10, 0.3, 0.4)
        osc._dual_scaled(5000.0, 30.0, 1398)
        for cache in MEMOS:
            assert cache._data
            for val, _ in cache._data.values():
                for a in val if isinstance(val, tuple) else (val,):
                    assert not a.flags.writeable
        m, w = mult._support(10)
        with pytest.raises(ValueError):
            w[0] = 1.0

    def test_retained_bytes_stay_under_each_bound(self):
        # j = 22 support (50 MB) and phases (25 MB each), and a 2^17-panel
        # dual rule (42 MB), all exceed their memos' bounds
        mult.m_j(22, 0.3, 0.4)
        for p in (1398, 2 ** 17):
            osc._dual_scaled(5000.0, 30.0, p)
        assert 22 not in mult._SUPPORT._data
        assert (22, 0.3) not in mult._LAM_PHASES._data
        assert (22, 0.4) not in mult._BETA_PHASES._data
        assert ("dual", 2 ** 17) not in osc._PANEL_RULES._data
        for j in range(8, 20):
            for k in range(10):
                mult.m_j(j, 0.1 * k, 0.07 * k)
        for cache in MEMOS:
            assert stored_bytes(cache) == cache.nbytes <= cache.max_bytes
            assert len(cache._data) <= cache.max_entries
