import math
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_oracles import check_row, covered_set_reps

from carlesonlab import arithmetic
from carlesonlab.arithmetic import (
    MajorBox,
    ReducedRational,
    _beta_centers,
    _frac1,
    enumerate_shell,
    find_box_overlaps,
    gauss_decay_scan,
    gauss_row,
    gauss_rows,
    gauss_sum,
    odd_q_modulus_deviation,
    shell_size,
    square_class_reps,
    torus_delta,
)


def brute_shell(s):
    out = []
    for q in range(2 ** (s - 1), 2 ** s):
        for a in range(q):
            for b in range(q):
                if gcd(gcd(a, b), q) == 1:
                    out.append((q, a, b))
    return out


def per_multiple_beta_centers(q, qmax):
    """Beta centers B/(q m) with their (m, B) labels by one array per
    multiple m, concatenated and stably sorted."""
    vals, labels = [], []
    for m in range(1, qmax // q + 1):
        qm = q * m
        b = np.arange(qm, dtype=np.int64)
        if m > 1:
            b = b[np.gcd(b % m, m) == 1]
        vals.append(b / qm)
        labels.append(np.stack([np.full(len(b), m, dtype=np.int64), b],
                               axis=1))
    v = np.concatenate(vals)
    lab = np.concatenate(labels, axis=0)
    order = np.argsort(v, kind="stable")
    return v[order], lab[order]


def raw_gauss(A, B, Q):
    """The defining sum at any integers (A, B, Q), where gauss_sum takes
    reduced triples only: for the periodicity of the formula itself."""
    r = np.arange(Q, dtype=np.int64)
    phase = (A * r * r - B * r) % Q  # exact integer reduction
    return np.exp(2j * np.pi * phase / Q).sum() / Q


class TestShells:
    def test_shell_1(self):
        assert [(r.Q, r.A, r.B) for r in enumerate_shell(1)] == [(1, 0, 0)]

    def test_shell_2_against_brute_force(self):
        got = [(r.Q, r.A, r.B) for r in enumerate_shell(2)]
        assert got == brute_shell(2)
        assert got[:3] == [(2, 0, 1), (2, 1, 0), (2, 1, 1)]

    def test_shell_3_count(self):
        # brute-force oracle count for Q in {4..7}: 12 + 24 + 24 + 48
        got = enumerate_shell(3)
        assert len(got) == len(brute_shell(3)) == 108
        assert shell_size(3) == 108

    @pytest.mark.parametrize("s", range(1, 7))
    def test_shell_size_counts_the_enumeration(self, s):
        check_row("arithmetic.enumerate_shell", s)

    def test_lexicographic_and_no_duplicates(self):
        got = [(r.Q, r.A, r.B) for r in enumerate_shell(4)]
        assert got == sorted(set(got))

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_shell(17)  # 2^17 exceeds the 2^16 shell cap
        with pytest.raises(ValueError):
            enumerate_shell(0)


class TestReducedRational:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReducedRational(2, 0, 0)  # gcd 2
        with pytest.raises(ValueError):
            ReducedRational(4, 5, 1)  # A out of range


class TestGaussSum:
    def test_q1(self):
        assert gauss_sum(ReducedRational(1, 0, 0)) == 1.0

    def test_vanishing_even(self):
        assert abs(gauss_sum(ReducedRational(2, 1, 0))) <= 1e-15

    def test_odd_prime_value(self):
        v = gauss_sum(ReducedRational(3, 1, 0))
        assert abs(v - 1j / math.sqrt(3)) <= 1e-12
        assert abs(abs(v) - 3 ** -0.5) <= 1e-12

    def test_periodicity_in_A_and_B(self):
        for (a, b, q) in [(3, 5, 7), (2, 9, 11), (5, 0, 12)]:
            base = raw_gauss(a, b, q)
            assert abs(raw_gauss(a + q, b, q) - base) <= 1e-12
            assert abs(raw_gauss(a, b + q, q) - base) <= 1e-12

    def test_row_matches_direct(self):
        # each row of one batched call is bitwise the single-row result
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = int(rng.integers(2, 700))
            a_list = np.unique(rng.integers(0, q, size=4)).tolist()
            b = int(rng.integers(0, q))
            for a, row in zip(a_list, gauss_rows(a_list, q)):
                assert np.array_equal(row, gauss_row(a, q))
            check_row("arithmetic.gauss_rows", (q, a_list, [b]))

    def test_unit_orbit_invariance(self):
        # S(A u^2, B u, Q) = S(A, B, Q) exactly (index substitution)
        rng = np.random.default_rng(5)
        for _ in range(30):
            q = int(rng.integers(3, 500))
            units = [u for u in range(1, q) if gcd(u, q) == 1]
            a = units[rng.integers(len(units))]
            b = int(rng.integers(0, q))
            u = units[rng.integers(len(units))]
            s1 = gauss_sum(ReducedRational(q, a, b))
            s2 = gauss_sum(ReducedRational(q, (a * u * u) % q, (b * u) % q))
            assert abs(s1 - s2) <= 1e-12

    def test_noncoprime_A_vanishes(self):
        # gcd(A, Q) = d > 1 with gcd(A, B, Q) = 1 forces S = 0: the inner
        # geometric sum over the period Q/d of the quadratic part vanishes
        # unless d | B, impossible for reduced triples.
        for (a, b, q) in [(2, 1, 4), (3, 1, 9), (6, 5, 8), (10, 3, 25)]:
            assert gcd(gcd(a, b), q) == 1 and gcd(a, q) > 1
            assert abs(gauss_sum(ReducedRational(q, a, b))) <= 1e-12

    def test_square_class_reps_cover_units(self):
        for q in (7, 12, 16, 45):
            reps = square_class_reps(q)
            units = [u for u in range(1, q) if gcd(u, q) == 1]
            squares = {(u * u) % q for u in units}
            covered = {(r * s) % q for r in reps for s in squares}
            assert covered == set(units)

    def test_modulus_law_small(self, monkeypatch):
        # one row per square class against one row per unit
        rep = odd_q_modulus_deviation(99)
        monkeypatch.setattr(arithmetic, "square_class_reps", lambda q: [
            u for u in range(q) if gcd(u, q) == 1])
        worst = odd_q_modulus_deviation(99)["max_deviation"]
        assert worst <= 1e-12
        assert abs(rep["max_deviation"] - worst) <= 1e-15
        q, a, _ = rep["argmax"]
        assert a in square_class_reps(q)

    def test_square_class_reps_match_covered_set_loop(self):
        # 8 | Q with three or more odd primes: 840, 1320, 2520, 9240
        check_row("arithmetic.square_class_reps", list(range(1, 1025)) + [
            840, 1320, 2047, 2048, 2520, 3465, 4095, 4096, 9240])

    @pytest.mark.parametrize("q", [45, 63, 64, 105, 243])
    def test_class_rows_are_permutations(self, q):
        # the modulus law reads one row per class: every unit's sorted |row|
        # must equal that of its class representative
        units = [u for u in range(1, q) if gcd(u, q) == 1]
        squares = {(u * u) % q for u in units}
        rep_rows = {r: np.sort(np.abs(gauss_row(r, q)))
                    for r in square_class_reps(q)}
        for u in units:
            (r,) = [r for r in rep_rows if u in {(r * s) % q for s in squares}]
            got = np.sort(np.abs(gauss_row(u, q)))
            assert np.max(np.abs(got - rep_rows[r])) <= 1e-13, (q, u, r)

    @pytest.mark.parametrize("qmax", [1, 2, 50, 185, 222])
    def test_beta_centers_match_per_multiple_loop(self, qmax):
        for q in range(1, qmax + 1):
            v, lab = _beta_centers(q, qmax)
            v_ref, lab_ref = per_multiple_beta_centers(q, qmax)
            assert v.dtype == v_ref.dtype and lab.dtype == lab_ref.dtype
            assert v.tobytes() == v_ref.tobytes(), (q, qmax)
            assert lab.shape == lab_ref.shape
            assert np.array_equal(lab, lab_ref), (q, qmax)

    def test_scans_equal_their_oracle_versions(self, monkeypatch):
        def scans():
            decay = gauss_decay_scan(512)
            decay["per_q_max_abs"] = decay["per_q_max_abs"].tobytes()
            return repr((decay, odd_q_modulus_deviation(251),
                         find_box_overlaps(13, 0.1, 222)))

        fast = scans()
        monkeypatch.setattr(arithmetic, "square_class_reps", covered_set_reps)
        monkeypatch.setattr(arithmetic, "_beta_centers",
                            per_multiple_beta_centers)
        assert scans() == fast

    def test_decay_scan_small(self):
        scan = gauss_decay_scan(64)
        # worst case is Q=2 where |S| = 1: the scaled max is 2^0.45
        assert abs(scan["max_scaled"] - 2.0 ** 0.45) <= 1e-9
        assert scan["argmax"]["Q"] == 2


def same_bits(got, ref) -> bool:
    """Bit-for-bit equality of float64 arrays; a NaN matches any NaN (its
    sign bit is the platform's default NaN, not the formula's)."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    nan = np.isnan(ref)
    return bool(np.array_equal(np.isnan(got), nan)
                and np.array_equal(got[~nan].view(np.uint64),
                                   ref[~nan].view(np.uint64)))


# the edges of the wrap: signed zeros, subnormals, integers and one ulp to
# either side, halves, the largest floats, infinities and NaN
# the five points of tests/test_multiplier.py's _SPECIAL are among them
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5, -0.5,
          1.0 - 2.0 ** -53, -1.0 + 2.0 ** -53, 2.0 ** 52 + 0.5, 2.0 ** 53,
          1.7976931348623157e308, -1.7976931348623157e308, math.inf,
          -math.inf, math.nan]
_EDGES += [float(np.nextafter(k, t)) for k in (1.0, -1.0, 3.0, -7.0, 2.0 ** 40)
           for t in (-math.inf, math.inf)]


class TestWrap:
    """The wrap x - floor(x) against numpy's remainder x % 1.0."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=16))
    @example(_EDGES)
    def test_frac1_is_the_float_remainder(self, xs):
        x = np.array(xs)
        with np.errstate(invalid="ignore"):
            assert same_bits(_frac1(x), x % 1.0)
            # a 0-d array, as torus_delta wraps a scalar
            for v in x:
                assert same_bits(_frac1(np.asarray(v)), np.asarray(v) % 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=16))
    @example(_EDGES)
    def test_torus_delta_is_the_old_formula(self, xs):
        x = np.array(xs)
        with np.errstate(invalid="ignore"):
            assert same_bits(torus_delta(x), (x + 0.5) % 1.0 - 0.5)
            assert all(same_bits(torus_delta(v), (v + 0.5) % 1.0 - 0.5)
                       for v in xs)

    def test_torus_delta_range(self):
        x = np.array([v for v in _EDGES if math.isfinite(v)])
        d = torus_delta(x)
        assert np.all((-0.5 <= d) & (d < 0.5))
        assert not np.any(np.signbit(d) & (d == 0.0))   # no -0.0


class TestMajorBoxes:
    def test_center_membership(self):
        c = ReducedRational(5, 2, 3)
        assert MajorBox(c, 9, 0.1).contains(2 / 5, 3 / 5)

    def test_offset_outside(self):
        c = ReducedRational(5, 2, 3)
        lam = 2 / 5 + 2.0 ** (-19 + 1)
        assert not MajorBox(c, 10, 0.1).contains(lam, 3 / 5)

    def test_torus_wrap(self):
        c = ReducedRational(1, 0, 0)
        assert MajorBox(c, 8, 0.1).contains(1.0 - 1e-9, 1e-9)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            MajorBox(ReducedRational(1, 0, 0), 8, 0.2)

    def test_disjoint_at_small_epsilon(self):
        # with the correct minimal gap 1/(Q Q') the disjointness argument
        # needs roughly eps < 1/13; at eps = 0.06 it holds and the scan
        # confirms zero overlaps
        for j in (8, 12, 16):
            rep = find_box_overlaps(j, 0.06)
            assert rep["disjoint"], rep["witnesses"][:2]

    def test_overlap_witness_at_eps_point_one(self):
        # at eps = 0.1 boxes sharing a lambda center overlap in beta:
        # e.g. (Q, A, B) = (26, 0, 1) and (27, 0, 1) at j = 8
        rep = find_box_overlaps(8, 0.1)
        assert not rep["disjoint"]
        w = rep["witnesses"][0]
        (q1, a1, b1), (q2, a2, b2) = w
        gap = abs(b1 / q1 - b2 / q2)
        assert a1 / q1 == a2 / q2
        assert gap <= 2.0 * 2.0 ** ((0.1 - 1.0) * 8)

    def test_scan_is_sound_on_witnesses(self):
        # every reported witness pair really does overlap in both axes
        rep = find_box_overlaps(12, 0.1)
        assert len(rep["witnesses"]) == 16
        wl, wb = rep["half_width_lambda"], rep["half_width_beta"]
        for (q1, a1, b1), (q2, a2, b2) in rep["witnesses"]:
            for (a, b, q) in ((a1, b1, q1), (a2, b2, q2)):
                assert gcd(gcd(a, b), q) == 1 and q <= rep["qmax"]
            dl = abs(a1 / q1 - a2 / q2)
            db = abs(b1 / q1 - b2 / q2)
            assert min(dl, 1 - dl) <= 2 * wl
            assert min(db, 1 - db) <= 2 * wb


class TestBoxScanOracle:
    """find_box_overlaps against every collected box, enumerated directly."""

    @pytest.mark.parametrize("j, eps", [
        (14, 0.05), (12, 0.05), (8, 0.1), (7, 0.1), (5, 0.13), (4, 0.13),
    ])
    def test_against_all_pairs(self, j, eps):
        check_row("arithmetic.find_box_overlaps", (j, eps))

    @pytest.mark.parametrize("j, eps", [
        (8, 0.1), (10, 0.1), (8, 0.13), (7, 0.12),
    ])
    def test_overlap_count_is_the_per_fraction_sum(self, j, eps):
        # the count is the sum over the lambda centers of their adjacent
        # beta pairs within 2 wb, where no two centers lie within 2 wl
        rep = find_box_overlaps(j, eps)
        assert rep["min_lambda_gap"] > 2.0 * rep["half_width_lambda"]
        assert rep["n_overlapping_adjacent_pairs"] > 0
        check_row("arithmetic.find_box_overlaps", (j, eps))
