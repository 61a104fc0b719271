from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlesonlab import multiplier
from carlesonlab.arithmetic import enumerate_shell, gauss_sum, ReducedRational
from carlesonlab.multiplier import (
    GridSpec,
    big_l_j,
    decay_report,
    e_j,
    frac_part_exact,
    l_js,
    l_super_s,
    m_j,
    m_j_grid,
    m_j_rational_oracle,
    _box_stage,
    _frac_lam_msq,
    _grid_stage,
)
from carlesonlab.oscillatory import h_j, osc_norm

# frozen from the pre-build j=8..18 sweep: max |dE_j/dlam| / 4^j was 0.339
DERIVATIVE_RATIO_CAP = 1.0


class TestExactPhases:
    def test_against_fraction_arithmetic(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = float(rng.random())
            m = rng.integers(-2 ** 24, 2 ** 24, size=40).astype(np.int64)
            got = frac_part_exact(x, m)
            ref = np.array([float((Fraction(x) * int(v)) % 1) for v in m])
            d = np.abs(got - ref)
            assert np.max(np.minimum(d, 1 - d)) <= 1e-14

    # limits of the 26-bit limb products: |m| < 2^25 for beta m, |m| <= 2^24
    # for lam m^2; hypothesis draws m at and inside those edges
    @staticmethod
    def _near(limit: int):
        edge = st.integers(limit - 2 ** 10, limit)
        return st.lists(st.one_of(edge, edge.map(lambda v: -v),
                                  st.integers(-limit, limit)),
                        min_size=1, max_size=8)

    @staticmethod
    def _assert_close(x, m, got, ref_of):
        for g, v in zip(got, m):
            ref = float(ref_of(Fraction(x), int(v)) % 1)
            d = abs(float(g) - ref)
            assert min(d, 1 - d) <= 2.0 ** -50, (x, int(v), float(g), ref)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           _near(2 ** 25 - 1))
    def test_linear_phase_against_fraction_at_the_limit(self, x, m):
        m = np.array(m, dtype=np.int64)
        self._assert_close(x, m, frac_part_exact(x, m), lambda f, v: f * v)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           _near(2 ** 24))
    def test_square_phase_against_fraction_at_the_limit(self, x, m):
        m = np.array(m, dtype=np.int64)
        self._assert_close(x, m, _frac_lam_msq(x, m), lambda f, v: f * v * v)

    @pytest.mark.parametrize("m", [2 ** 25, -2 ** 25, 2 ** 40])
    def test_linear_phase_rejects_m_past_the_limit(self, m):
        with pytest.raises(ValueError):
            frac_part_exact(0.3, np.array([1, m], dtype=np.int64))

    @pytest.mark.parametrize("m", [2 ** 24 + 1, -2 ** 24 - 1])
    def test_square_phase_rejects_m_past_the_limit(self, m):
        with pytest.raises(ValueError):
            _frac_lam_msq(0.0, np.array([m], dtype=np.int64))


class TestMj:
    def test_odd_bump_kills_zero_frequencies(self):
        assert m_j(6, 0.0, 0.0) == 0.0

    def test_lambda_periodicity_exact(self):
        # 1 + 0.375 is exactly representable, so the phases agree exactly
        assert m_j(6, 0.375, 0.2) == m_j(6, 1.375, 0.2)

    def test_beta_periodicity_exact(self):
        assert m_j(6, 0.3, 0.25) == m_j(6, 0.3, 1.25)

    def test_odd_reflection(self):
        a = m_j(7, 0.21, 0.37)
        b = m_j(7, 0.21, -0.37)
        assert abs(a + b) <= 1e-12

    def test_rational_phase_oracle(self):
        lam, beta = 0.25 + 1e-7, 0.5 + 1e-5
        got = m_j(10, lam, beta)
        ref = m_j_rational_oracle(10, Fraction(lam), Fraction(beta))
        assert abs(got - ref) <= 1e-10

    def test_cost_cap(self):
        with pytest.raises(ValueError):
            m_j(25, 0.1, 0.1)

    def test_row_and_grid_match_pointwise(self):
        G = 128
        grid = m_j_grid(9, G)
        for h in (0, 3, 64, 100):
            ref = m_j(9, 37 / G, h / G)
            assert abs(grid[37, h] - ref) <= 1e-10


class TestLjs:
    def test_far_from_rationals_vanishes(self):
        # both coordinates > (1/5) 10^-s away from every shell rational
        shell = enumerate_shell(1)
        assert l_js(12, 1, 0.31, 0.47, shell) == 0.0

    def test_single_center_equals_hj(self):
        v = l_js(12, 1, 1e-8, 1e-8)
        ref = h_j(12, 1e-8, 1e-8)
        assert abs(v - ref) <= 1e-10

    def test_vanishing_gauss_sum_center(self):
        assert abs(l_js(12, 2, 0.5 + 1e-8, 1e-8)) <= 1e-15

    def test_shell_validation(self):
        with pytest.raises(ValueError):
            l_js(10, 0, 0.0, 0.0)

    def test_composition_bound(self):
        # |S * H_j| <= |S| * envelope at box-scale offsets
        r = ReducedRational(3, 1, 0)
        dl, db = 1e-7, 1e-4
        val = abs(gauss_sum(r) * h_j(11, dl, db))
        n = osc_norm(11, dl, db)
        assert val <= abs(gauss_sum(r)) * 50.0 * min(n, n ** -0.5)


class TestRegrouping:
    def test_scale_first_equals_shell_first(self):
        eps, j_max = 0.13, 16
        for lam, beta in [(1e-3, 2e-3), (0.501, 0.499)]:
            by_scale = sum(big_l_j(j, lam, beta, eps) for j in range(1, j_max + 1))
            smax = int(eps * j_max)
            by_shell = sum(l_super_s(s, lam, beta, eps, j_max)
                           for s in range(1, smax + 1))
            assert abs(by_scale - by_shell) <= 1e-12


class TestEj:
    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            e_j(10, 0.1, 0.1, epsilon=0.2)

    def test_reduces_to_mj_where_cutoffs_vanish(self):
        lam, beta = 0.31, 0.47
        assert e_j(10, lam, beta, 0.1) == m_j(10, lam, beta)

    def test_derivative_bound_sampled(self):
        # finite differences at random points, j = 10: |dE/dlam| <= C 4^j
        rng = np.random.default_rng(123)
        h = 2.0 ** (-2 * 10 - 8)
        worst = 0.0
        for _ in range(10):
            lam, beta = rng.random(), rng.random()
            d = abs(e_j(10, lam + h, beta, 0.1) - e_j(10, lam - h, beta, 0.1))
            worst = max(worst, d / (2 * h) / 4.0 ** 10)
        assert worst <= DERIVATIVE_RATIO_CAP


class TestDecayReport:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(G=200, strata=5)
        with pytest.raises(ValueError, match="under-resolved"):
            GridSpec(G=256, strata=2)

    def test_j_range_validation(self):
        with pytest.raises(ValueError):
            decay_report([])
        with pytest.raises(ValueError):
            decay_report([30])

    def test_small_run_shape_and_decay(self):
        rep = decay_report(range(8, 12), epsilon=0.1,
                           grid=GridSpec(G=128, strata=3),
                           n_derivative_samples=4, boxes_per_shell=2)
        assert [r["j"] for r in rep["per_j"]] == [8, 9, 10, 11]
        assert rep["slopes"]["Ej"] is not None and rep["slopes"]["Ej"] < 0
        assert rep["constants"]["derivative_ratio_max"] <= DERIVATIVE_RATIO_CAP
        for r in rep["per_j"]:
            assert np.isfinite(r["sup_abs_Ej"])

    def test_deterministic(self):
        kw = dict(epsilon=0.1, grid=GridSpec(G=64, strata=3),
                  n_derivative_samples=2, boxes_per_shell=1, seed=5)
        a = decay_report([8, 9], **kw)
        b = decay_report([8, 9], **kw)
        assert a == b



class TestDecayStages:
    @pytest.mark.parametrize("j", [10, 20])
    def test_grid_stage_subtracts_l_j_at_every_point(self, j):
        # j = 10 has shell 1, whose window around (0, 0) wraps to negative
        # g and h; j = 20 adds shell 2.  Off the windows E_j must be M_j
        G, eps = 64, 0.1
        shells = {s: enumerate_shell(s) for s in range(1, int(eps * j) + 1)}
        e, _, _ = _grid_stage(j, eps, G, shells, 1e-10)
        lj = np.array([[big_l_j(j, g / G, h / G, eps, shells)
                        for h in range(G)] for g in range(G)])
        assert np.array_equal(e, m_j_grid(j, G) - lj)
        # H_j(dl, 0) = 0 (psi_j is odd), so the wrapped points checked
        # sit one step off the beta axis
        assert lj[G - 1, 1] != 0.0 and lj[1, G - 1] != 0.0

    def test_box_stage_evaluates_h_j_once_per_point(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return h_j(*args)

        args = (12, 0.1, [ReducedRational(1, 0, 0)],
                {1: enumerate_shell(1)}, 3, 3, 1e-10)
        plain = _box_stage(*args)
        monkeypatch.setattr(multiplier, "h_j", counted)
        assert _box_stage(*args) == plain
        assert len(calls) == 9
