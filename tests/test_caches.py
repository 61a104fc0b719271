"""The package's memos and working set.

Two byte-bounded memos remain: the m_j support and psi_j weights of the
last j, and the h_j panel rules; beside them, the H_j symmetry-class
memo.  A memo hit gives the same bits as a recomputation, cached arrays
are read-only, and each memo stays under its bounds.  The phase
reductions of the decay harness are not memos: each box and derivative
point reduces its samples once and hands them to m_j.  tracemalloc
bounds what the decay harness and ``gauss`` hold and peak at.
"""

import importlib
import pkgutil
import tracemalloc

import numpy as np
import pytest

import carlesonlab
from carlesonlab import cli
from carlesonlab import multiplier as mult
from carlesonlab import oscillatory as osc
from carlesonlab._memo import BoundedCache


def discover_memos() -> list[BoundedCache]:
    """Every BoundedCache bound at module level in a carlesonlab module."""
    found = []
    for info in pkgutil.iter_modules(carlesonlab.__path__):
        mod = importlib.import_module(f"carlesonlab.{info.name}")
        for v in vars(mod).values():
            if isinstance(v, BoundedCache) and not any(v is f for f in found):
                found.append(v)
    return found


MEMOS = discover_memos()

# (j, lam, beta) with alternating j, so the one-entry support memo evicts
POINTS = [(j, lam, beta) for lam, beta in ((0.3, 0.7), (0.25 + 1e-7, 0.5 - 3e-5))
          for j in (9, 12, 9, 12)] + [(12, 0.3, 0.1), (12, 0.3, 0.7)]


def clear_all():
    for cache in MEMOS:
        cache.cache_clear()
    mult._h_class.cache_clear()


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


class TestMemoBounds:
    def test_discovery_finds_exactly_the_known_memos(self):
        # a memo added later falls under the tests below; this list is
        # changed on purpose when one is added or removed
        known = (osc._PANEL_RULES, mult._SUPPORT)
        assert len(MEMOS) == len(known)
        assert all(any(m is k for k in known) for m in MEMOS)

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
        # the j = 22 support (50 MB) and a 2^17-panel dual rule (42 MB)
        # exceed their memos' bounds; the supports of j = 8..19 and eight
        # dual rules of 0.43 MB each overfill them
        mult._support(22)
        for p in (1398, 2 ** 17):
            osc._dual_scaled(5000.0, 30.0, p)
        assert 22 not in mult._SUPPORT._data
        assert ("dual", 2 ** 17) not in osc._PANEL_RULES._data
        for j in range(8, 20):
            mult._support(j)
        for p in range(1398, 1406):
            osc._dual_rule(p)
        for cache in MEMOS:
            assert stored_bytes(cache) == cache.nbytes <= cache.max_bytes
            assert len(cache._data) <= cache.max_entries

    def test_h_class_memo_holds_at_most_its_cap(self):
        # one more class than the cap evicts the least recently used one,
        # which then misses again; the entries are H_j values themselves
        cap = mult._h_class.cache_info().maxsize
        assert cap == 2 ** 12
        mult._h_class.cache_clear()
        ys = [i * 2.0 ** -20 for i in range(cap + 1)]
        for y in ys:
            mult._h_class(12, 0.0, y, 1e-10)
        info = mult._h_class.cache_info()
        assert (info.currsize, info.misses) == (cap, cap + 1)
        assert mult._h_class(12, 0.0, ys[0], 1e-10) == \
            osc.h_j(12, 0.0, ys[0], 1e-10)
        info = mult._h_class.cache_info()
        assert (info.currsize, info.misses) == (cap, cap + 2)


class TestWorkingSet:
    """tracemalloc bounds, each the measured value plus a margin."""

    def test_decay_ops_hold_little_and_peak_low(self):
        # one warm-up op (lazy tables, first-call costs), then nine decay
        # ops of the benchmark's shape with every memo cold; measured
        # 1.73 MB held at most and a 4.48 MB peak
        kw = dict(grid=mult.GridSpec(G=128, strata=3), n_derivative_samples=10,
                  boxes_per_shell=1)
        mult.decay_report([11], seed=1, **kw)
        clear_all()
        held = []
        tracemalloc.start()
        try:
            for seed in (2, 3, 4):
                for j in (11, 13, 15):
                    mult.decay_report([j], seed=seed, **kw)
                    held.append(tracemalloc.get_traced_memory()[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(held) <= 3 * 2 ** 20
        assert peak <= 7 * 2 ** 20

    def test_gauss_csv_peaks_low(self, tmp_path):
        # after a warm-up run, measured 6.87 MB above what was held before
        assert cli.main(["gauss", "--qmax", "8", "-o", str(tmp_path / "w")]) == 0
        tracemalloc.start()
        try:
            assert cli.main(["gauss", "--qmax", "64",
                             "-o", str(tmp_path / "g")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20
