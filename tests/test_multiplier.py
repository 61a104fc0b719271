import json
import math

import numpy as np
import pytest
from test_oracles import check_row

from carlesonlab import cli, multiplier
from carlesonlab.arithmetic import (ReducedRational, enumerate_shell,
                                    gauss_sum, torus_delta)
from carlesonlab.cli import passes
from carlesonlab.multiplier import (
    GridSpec,
    big_l_j,
    decay_report,
    frac_part_exact,
    m_j,
    m_j_grid,
    _box_samples,
    _box_stage,
    _derivative_stage,
    _frac_lam_msq,
    _limbs,
    _support,
    _grid_stage,
    _sample_shell_centers,
    _shell_sum,
)
from carlesonlab.oscillatory import h_j


class TestExactPhases:
    def test_against_fraction_arithmetic(self):
        rng = np.random.default_rng(2)
        check_row("multiplier.frac_part_exact", *[
            (float(rng.random()), rng.integers(-2 ** 24, 2 ** 24, 40).tolist())
            for _ in range(25)])

    @pytest.mark.parametrize("m", [2 ** 25, -2 ** 25, 2 ** 40])
    def test_linear_phase_rejects_m_past_the_limit(self, m):
        with pytest.raises(ValueError):
            frac_part_exact(0.3, np.array([1, m], dtype=np.int64))

    @pytest.mark.parametrize("m", [2 ** 24 + 1, -2 ** 24 - 1])
    def test_square_phase_rejects_m_past_the_limit(self, m):
        with pytest.raises(ValueError):
            _frac_lam_msq(0.0, np.array([m], dtype=np.int64))


# The phase reductions and m_j as written with numpy's x % 1.0, before the
# wrap became x - floor(x); the kernels must reproduce them bit for bit.
# TestWrap and TestExpi check _frac1 and _expi at the _SPECIAL points
# themselves; only these pins check them at the sums the kernels form over
# each support.
def _old_frac_terms(k_limbs, e, operands):
    total = np.zeros(operands[0][0].shape, dtype=float)
    for i, ki in enumerate(k_limbs):
        if ki == 0:
            continue
        for s, off in operands:
            c = 26 * i + off - e
            if c >= 0:
                continue
            p = ki * s
            if -c <= 62:
                p = p & ((1 << (-c)) - 1)
            total += p.astype(float) * 2.0 ** c
    return total % 1.0


def _old_frac_part_exact(x, m):
    if x == 0.0:
        return np.zeros(m.shape, dtype=float)
    k0, k1, k2, e = _limbs(x)
    f = _old_frac_terms((k0, k1, k2), e, ((np.abs(m), 0),))
    return np.where((m < 0) != (x < 0), (-f) % 1.0, f)


def _old_frac_lam_msq(x, m):
    if x == 0.0:
        return np.zeros(m.shape, dtype=float)
    k0, k1, k2, e = _limbs(x)
    sq = m.astype(np.int64) ** 2
    f = _old_frac_terms((k0, k1, k2), e,
                        ((sq & ((1 << 24) - 1), 0), (sq >> 24, 24)))
    return (-f) % 1.0 if x < 0.0 else f


def _old_m_j(j, lam, beta):
    m, w = _support(j)
    fl, fb = _old_frac_lam_msq(lam, m), _old_frac_part_exact(beta, m)
    pos = np.exp(2j * np.pi * ((fl - fb) % 1.0))
    neg = np.exp(2j * np.pi * ((fl + fb) % 1.0))
    return complex(np.sum(w * (pos - neg)))


_SPECIAL = [0.0, 0.5, 1.0 - 2.0 ** -53, -0.5, -(1.0 - 2.0 ** -53)]


def _bits(z):
    z = np.asarray(z, dtype=complex)
    return z.real.tobytes() + z.imag.tobytes()


class TestWrapIsBitIdentical:
    @pytest.mark.parametrize("j", range(2, 17))
    def test_m_j_equals_the_remainder_formula(self, j):
        rng = np.random.default_rng(j)
        points = [(lam, beta) for lam in _SPECIAL for beta in _SPECIAL]
        points += [tuple(v) for v in rng.uniform(-2.0, 2.0, (6, 2))]
        points += [tuple(v) for v in rng.random((6, 2)) * 2.0 ** -(2 * j)]
        for lam, beta in points:
            lam, beta = float(lam), float(beta)
            assert _bits(m_j(j, lam, beta)) == _bits(_old_m_j(j, lam, beta)), \
                (j, lam, beta)

    @pytest.mark.parametrize("j", range(2, 17))
    def test_phase_reductions_equal_the_remainder_formula(self, j):
        rng = np.random.default_rng(100 + j)
        m, _ = _support(j)
        m = np.concatenate([-m, m])
        for x in _SPECIAL + rng.uniform(-3.0, 3.0, 8).tolist():
            assert _bits(frac_part_exact(x, m)) == \
                _bits(_old_frac_part_exact(x, m)), (j, x)
            assert _bits(_frac_lam_msq(x, m)) == \
                _bits(_old_frac_lam_msq(x, m)), (j, x)


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
        check_row("multiplier.m_j", (10, 0.25 + 1e-7, 0.5 + 1e-5))

    def test_cost_cap(self):
        with pytest.raises(ValueError):
            m_j(25, 0.1, 0.1)

    @pytest.mark.parametrize("j", range(6, 17))
    def test_given_phases_are_the_pointwise_reductions(self, j):
        # the box and derivative stages hand m_j the reductions it would
        # make itself, at the edges of the phase range among others
        m, w = _support(j)
        edge = (0.0, 2.0 ** -1074, -2.0 ** -1074, 0.5, 1.0 - 2.0 ** -52)
        for lam in edge:
            fl = _frac_lam_msq(lam, m)
            for beta in edge:
                given = m_j(j, lam, beta,
                            terms=(w, fl, frac_part_exact(beta, m)))
                assert _bits(given) == _bits(m_j(j, lam, beta)), (lam, beta)

    @pytest.mark.parametrize("lam, beta", [(np.inf, 0.1), (0.1, -np.inf),
                                           (np.nan, 0.1)])
    def test_non_finite_point_is_rejected(self, lam, beta):
        with pytest.raises(ValueError, match="finite"):
            m_j(8, lam, beta)

    def test_row_and_grid_match_pointwise(self):
        check_row("multiplier.m_j_grid",
                  *[(9, 128, 37, h) for h in (0, 3, 64, 100)])

    @pytest.mark.parametrize("G", [0, -1, -4, 3, 96])
    def test_grid_size_not_a_power_of_two_is_rejected(self, G):
        # 0 & -1 == 0: a bare bit test lets G = 0 through to the transform
        with pytest.raises(ValueError, match="must be a power of two"):
            m_j_grid(9, G)


class TestLjs:
    # the shell-s term of L_j at one point
    def test_far_from_rationals_vanishes(self):
        # both coordinates > (1/5) 10^-s away from every shell rational
        assert _shell_sum(12, 1, 0.31, 0.47, enumerate_shell(1), 1e-10) == 0.0

    def test_single_center_equals_hj(self):
        v = _shell_sum(12, 1, 1e-8, 1e-8, enumerate_shell(1), 1e-10)
        ref = h_j(12, 1e-8, 1e-8)
        assert abs(v - ref) <= 1e-10

    def test_vanishing_gauss_sum_center(self):
        v = _shell_sum(12, 2, 0.5 + 1e-8, 1e-8, enumerate_shell(2), 1e-10)
        assert abs(v) <= 1e-15

    def test_shell_validation(self):
        with pytest.raises(ValueError, match="shell index must be >= 1"):
            _shell_sum(10, 0, 0.0, 0.0, enumerate_shell(0), 1e-10)

    def test_composition_bound(self):
        # |S * H_j| <= |S| * envelope at box-scale offsets
        r = ReducedRational(3, 1, 0)
        dl, db = 1e-7, 1e-4
        val = abs(gauss_sum(r) * h_j(11, dl, db))
        n = 4.0 ** 11 * abs(dl) + 2.0 ** 11 * abs(db)   # scale-11 size
        assert val <= abs(gauss_sum(r)) * 50.0 * min(n, n ** -0.5)


class TestRegrouping:
    def test_scale_first_equals_shell_first(self):
        eps, j_max = 0.13, 16
        for lam, beta in [(1e-3, 2e-3), (0.501, 0.499)]:
            by_scale = sum(big_l_j(j, lam, beta, eps) for j in range(1, j_max + 1))
            smax = int(eps * j_max)
            # shell first: for each s, the shell-s terms over s <= eps j
            # <= eps j_max
            by_shell = sum(_shell_sum(j, s, lam, beta, enumerate_shell(s),
                                      1e-10)
                           for s in range(1, smax + 1)
                           for j in range(math.ceil(s / eps), j_max + 1))
            assert abs(by_scale - by_shell) <= 1e-12


def _e_j(j, lam, beta, epsilon):
    """E_j = M_j - L_j, as multiplier-sample and the derivative probe
    compute it."""
    return m_j(j, lam, beta) - big_l_j(j, lam, beta, epsilon)


class TestEj:
    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            big_l_j(10, 0.1, 0.1, epsilon=0.2)

    def test_reduces_to_mj_where_cutoffs_vanish(self):
        lam, beta = 0.31, 0.47
        assert big_l_j(10, lam, beta, 0.1) == 0.0
        assert _e_j(10, lam, beta, 0.1) == m_j(10, lam, beta)

    def test_derivative_bound_sampled(self):
        # finite differences at random points, j = 10: |dE/dlam| <= C 4^j
        rng = np.random.default_rng(123)
        h = 2.0 ** (-2 * 10 - 8)
        worst = 0.0
        for _ in range(10):
            lam, beta = rng.random(), rng.random()
            d = abs(_e_j(10, lam + h, beta, 0.1) - _e_j(10, lam - h, beta, 0.1))
            worst = max(worst, d / (2 * h) / 4.0 ** 10)
        assert passes("derivative_ratio", worst)


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
        assert passes("derivative_ratio",
                      rep["constants"]["derivative_ratio_max"])
        for r in rep["per_j"]:
            assert np.isfinite(r["sup_abs_Ej"])

    def test_deterministic(self):
        kw = dict(epsilon=0.1, grid=GridSpec(G=64, strata=3),
                  n_derivative_samples=2, boxes_per_shell=1, seed=5)
        a = decay_report([8, 9], **kw)
        b = decay_report([8, 9], **kw)
        assert a == b


class TestGridMembership:
    @pytest.mark.parametrize("j,eps,G", [(8, 0.13, 512), (10, 0.1, 128)])
    def test_matches_brute_force_box_scan(self, j, eps, G):
        # at (8, 0.13, 512) G * qmax * wl >= 1, so a grid point can sit in a
        # box whose lambda center is not g/G itself; the probes are every
        # point inside, the beta steps just outside, and random points
        check_row("multiplier._grid_point_in_major_boxes",
                  (j, eps, G, 2000, None))

    @pytest.mark.parametrize("j,eps,G", [(10, 0.1, 128), (12, 0.1, 128),
                                         (14, 0.1, 64), (16, 0.1, 64),
                                         (8, 0.13, 512)])
    def test_candidates_match_the_scalar_loop(self, j, eps, G):
        # the candidate search at the chi windows around (0, 0), where the
        # decay harness asks, and at 1500 random points
        check_row("multiplier._grid_point_in_major_boxes",
                  (j, eps, G, 1500, 0))


class TestDecayStages:
    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_shell_one_sample_draws_nothing(self, count):
        # shell 1 holds (1, 0, 0) alone and takes nothing from the
        # generator, so shell 3 then draws what the rejection loop over
        # both shells drew
        rng, fresh = (np.random.default_rng(31) for _ in range(2))
        assert _sample_shell_centers(1, count, rng) \
            == [ReducedRational(1, 0, 0)][:count]
        assert rng.bit_generator.state == fresh.bit_generator.state
        assert _sample_shell_centers(3, 4, rng) == [
            ReducedRational(*t) for t in [(6, 5, 2), (4, 1, 1), (4, 0, 3),
                                          (4, 3, 3)]]

    @pytest.mark.parametrize("j", [10, 20])
    def test_grid_stage_subtracts_l_j_at_every_point(self, j):
        # j = 10 has shell 1, whose window around (0, 0) wraps to negative
        # g and h; j = 20 adds shell 2.  Off the windows E_j must be M_j
        G, eps = 64, 0.1
        shells = {s: enumerate_shell(s) for s in range(1, int(eps * j) + 1)}
        e, _, _ = _grid_stage(j, eps, G, shells, 1e-10)
        lj = np.array([[big_l_j(j, g / G, h / G, eps)
                        for h in range(G)] for g in range(G)])
        assert np.array_equal(e, m_j_grid(j, G) - lj)
        # H_j(dl, 0) = 0 (psi_j is odd), so the wrapped points checked
        # sit one step off the beta axis
        assert lj[G - 1, 1] != 0.0 and lj[1, G - 1] != 0.0

    def test_grid_stage_evaluates_h_j_once_per_class(self, monkeypatch):
        # j = 12, G = 128: the chi_1 window around (0, 0) holds the 5 x 5
        # points |g|, |h| <= 2, whose offsets fall in 3 x 3 classes; the
        # class memo outlives the call, so a second stage evaluates none
        j, eps, G, tol = 12, 0.1, 128, 1e-10
        shells = {1: enumerate_shell(1)}
        plain = _grid_stage(j, eps, G, shells, tol)
        multiplier._h_class.cache_clear()
        calls = _count_calls(monkeypatch, "h_j")
        got = _grid_stage(j, eps, G, shells, tol)
        assert sorted(calls) == sorted((j, abs(g) / G, abs(h) / G, tol)
                                       for g in (0, 1, 2) for h in (0, 1, 2))
        assert np.array_equal(got[0], plain[0]) and got[1:] == plain[1:]
        del calls[:]
        again = _grid_stage(j, eps, G, shells, tol)
        assert calls == []
        assert np.array_equal(again[0], plain[0]) and again[1:] == plain[1:]

    def test_box_stage_evaluates_h_j_once_per_class(self, monkeypatch):
        # the decomposition center (1, 0, 0): its 3 x 3 samples and their
        # L_j sums share the classes (|dl|, |db|) of the sample offsets
        j, eps, tol = 12, 0.1, 1e-10
        r = ReducedRational(1, 0, 0)
        args = (j, _support(j), eps, [r], {1: enumerate_shell(1)}, 3, 3, tol)
        plain = _box_stage(*args)
        lams, betas = _box_samples(j, eps, r, 3)
        classes = {(abs(float(dl)), abs(float(db)))
                   for dl in torus_delta(lams) for db in torus_delta(betas)}
        multiplier._h_class.cache_clear()
        calls = _count_calls(monkeypatch, "h_j")
        assert _box_stage(*args) == plain
        assert sorted(calls) == sorted((j, x, y, tol) for x, y in classes)
        assert len(calls) == 6
        del calls[:]
        assert _box_stage(*args) == plain and calls == []

    def test_box_stage_evaluates_h_j_once_per_class_across_boxes(
            self, monkeypatch):
        # two centers outside the decomposition (shell 1 is (1, 0, 0) at
        # j = 12): the 18 offsets of their boxes fall in 6 classes
        # (|dl|, |db|), and only those need an H_j
        j, eps, tol, strata = 12, 0.1, 1e-10, 3
        shells = {1: enumerate_shell(1)}
        centers = [ReducedRational(3, 1, 1), ReducedRational(5, 2, 3)]
        classes = set()
        (sup_major, arg_major), sup_uncovered = (0.0, None), 0.0
        # the same loop without the memo: H_j evaluated at every sample
        for r in centers:
            lams, betas = _box_samples(j, eps, r, strata)
            for lam in lams.tolist():
                for beta in betas.tolist():
                    dl = float(torus_delta(lam - r.A / r.Q))
                    db = float(torus_delta(beta - r.B / r.Q))
                    classes.add((abs(dl), abs(db)))
                    mv = m_j(j, lam, beta)
                    err = abs(mv - gauss_sum(r) * h_j(j, dl, db, tol))
                    if err > sup_major:
                        sup_major = err
                        arg_major = (lam, beta, [r.Q, r.A, r.B])
                    sup_uncovered = max(sup_uncovered, abs(
                        mv - big_l_j(j, lam, beta, eps, tol)))
        multiplier._h_class.cache_clear()
        calls = _count_calls(monkeypatch, "h_j")
        support = _support(j)
        got = _box_stage(j, support, eps, centers, shells, 5, strata, tol)
        assert sorted(calls) == sorted((j, x, y, tol) for x, y in classes)
        assert len(classes) == 6
        assert got == ((0.0, None), sup_uncovered, (sup_major, arg_major))
        del calls[:]
        assert _box_stage(j, support, eps, centers, shells, 5, strata,
                          tol) == got
        assert calls == []

    def test_phase_reductions_once_per_box_and_derivative_point(
            self, monkeypatch):
        # a box reduces each of its sample lams and betas once, and a
        # derivative point reduces lam + h, lam - h and beta once each; at
        # strata 5, 9 and 12 a box reduces P betas, not P^2
        j, eps, tol = 12, 0.1, 1e-10
        shells = {1: enumerate_shell(1)}
        centers = [ReducedRational(1, 0, 0), ReducedRational(3, 1, 1),
                   ReducedRational(5, 2, 3)]
        support = _support(j)
        lam_calls = _count_calls(monkeypatch, "_frac_lam_msq")
        beta_calls = _count_calls(monkeypatch, "frac_part_exact")
        for P in (5, 9, 12):
            samples = [_box_samples(j, eps, r, P if r.Q == 1 else 3)
                       for r in centers]
            del lam_calls[:], beta_calls[:]
            _box_stage(j, support, eps, centers, shells, P, 3, tol)
            assert [a[0] for a in lam_calls] == \
                [x for lams, _ in samples for x in lams.tolist()]
            assert len(beta_calls) == P + 3 + 3, P
            assert sorted(a[0] for a in beta_calls) == \
                sorted(x for _, betas in samples for x in betas.tolist())
        points = np.random.default_rng(3).random((4, 2))
        hstep = 2.0 ** (-2 * j - 8)
        del lam_calls[:], beta_calls[:]
        _derivative_stage(j, support, shells, points, tol)
        assert [a[0] for a in lam_calls] == \
            [float(lam + s * hstep) for lam, _ in points for s in (1, -1)]
        assert [a[0] for a in beta_calls] == [float(b) for _, b in points]

    def test_box_and_derivative_stages_build_no_support(self, monkeypatch):
        # decay_report builds the support of a j once and hands it down
        j, eps, tol = 12, 0.1, 1e-10
        shells = {1: enumerate_shell(1)}
        centers = [ReducedRational(1, 0, 0), ReducedRational(3, 1, 1)]
        points = np.random.default_rng(3).random((2, 2))
        support = _support(j)

        def no_support(j):
            raise AssertionError("a stage built its own support")

        monkeypatch.setattr(multiplier, "_support", no_support)
        _box_stage(j, support, eps, centers, shells, 3, 3, tol)
        _derivative_stage(j, support, shells, points, tol)

    def test_decay_report_enumerates_each_shell_once_per_j(self,
                                                            monkeypatch):
        # the four stages share the shells of a j, the derivative probe
        # included
        calls = _count_calls(monkeypatch, "enumerate_shell")
        decay_report([10, 11], grid=GridSpec(G=64, strata=3),
                     n_derivative_samples=3, boxes_per_shell=1)
        assert calls == [(1,), (1,)]

    def test_report_equals_pointwise_phases(self, monkeypatch):
        # every stage, with m_j reducing each point itself instead of
        # taking the reductions of its box or derivative point, gives the
        # same report to the last bit
        kw = dict(epsilon=0.1, grid=GridSpec(G=128, strata=4),
                  n_derivative_samples=4, boxes_per_shell=1, seed=11)
        shared = decay_report(range(10, 13), **kw)
        monkeypatch.setattr(multiplier, "m_j",
                            lambda j, lam, beta, terms: m_j(j, lam, beta))
        assert repr(decay_report(range(10, 13), **kw)) == repr(shared)

    def test_report_equals_pointwise_h_j(self, monkeypatch):
        # every stage, with H_j evaluated at each offset instead of read
        # from its class, gives the same report to the last bit
        kw = dict(epsilon=0.1, grid=GridSpec(G=128, strata=3),
                  n_derivative_samples=4, boxes_per_shell=1, seed=11)
        by_class = decay_report(range(10, 13), **kw)
        monkeypatch.setattr(multiplier, "_h_at_offset",
                            lambda j, dl, db, tol: h_j(j, dl, db, tol))
        assert repr(decay_report(range(10, 13), **kw)) == repr(by_class)


def _count_calls(monkeypatch, name: str) -> list:
    """The argument tuples of every call the multiplier makes to ``name``
    from now."""
    calls = []
    fn = getattr(multiplier, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(multiplier, name, counted)
    return calls


# points in the chi windows around (0, 0) at j = 12 (shell 1) and around
# (1/2, 1/2) at j = 20 (shell 2), offsets of either sign and zero (where
# H_j, odd in y or past the psi-hat cut, sums to a zero)
_WINDOW_POINTS = [
    (12, lam, beta) for lam, beta in
    [(0.0, 0.0), (0.013, -0.007), (-0.004, 0.0), (0.0, 0.002),
     (-0.019, -0.011), (0.99, 0.004)]
] + [
    (20, 0.5 + dl, 0.5 + db) for dl, db in
    [(0.0, 0.0), (0.0011, -0.0007), (-0.0015, 0.0), (0.0, 0.0017),
     (-0.0001, 0.0001), (0.0002, 0.0003)]
]


def test_l_js_and_big_l_j_equal_the_pointwise_sum():
    # the shell terms and big_l_j read H_j by symmetry class; the sum over
    # each shell with H_j at each offset gives the same value to the last bit
    check_row("multiplier._l_j", *_WINDOW_POINTS)
    assert sum(big_l_j(*p, 0.1) != 0.0 for p in _WINDOW_POINTS) >= 6


@pytest.mark.parametrize("j, lam, beta", [_WINDOW_POINTS[1], _WINDOW_POINTS[7]])
def test_multiplier_sample_evaluates_m_j_once(tmp_path, monkeypatch, j, lam,
                                              beta):
    # the report's E_j is M_j - L_j with the M_j it reports, and its l_js
    # are the shell sums (held to the pointwise sums by the oracle table):
    # shell 1 at j = 12, shells 1, 2 at 20
    tol, eps = 1e-10, 0.1
    calls = []

    def counted(*args):
        calls.append(args)
        return m_j(*args)

    for module in (cli, multiplier):
        monkeypatch.setattr(module, "m_j", counted)
    assert cli.main(["multiplier-sample", "--j", str(j), f"--lam={lam!r}",
                     f"--beta={beta!r}", "-o", str(tmp_path / "p")]) == 0
    assert calls == [(j, lam, beta)]
    rep = json.loads((tmp_path / "p.json").read_text())

    def read(z):
        return repr(complex(z["re"], z["im"]))

    mv = m_j(j, lam, beta)
    assert read(rep["m_j"]) == repr(mv)
    assert read(rep["e_j"]) == repr(mv - big_l_j(j, lam, beta, eps, tol))
    shells = range(1, math.floor(eps * j) + 1)
    assert list(rep["l_js"]) == [str(s) for s in shells]
    by_shell = [_shell_sum(j, s, lam, beta, enumerate_shell(s), tol)
                for s in shells]
    assert [read(v) for v in rep["l_js"].values()] == \
        [repr(v) for v in by_shell]
    assert any(by_shell)


def test_multiplier_sample_enumerates_each_shell_once(tmp_path, monkeypatch):
    # shells 1 and 2 at j = 20: the l_js and E_j sums share one
    # enumeration of each
    calls = _count_calls(monkeypatch, "enumerate_shell")
    assert cli.main(["multiplier-sample", "--j", "20", "--lam", "0.5011",
                     "--beta", "0.4993", "-o", str(tmp_path / "p")]) == 0
    assert calls == [(1,), (2,)]
