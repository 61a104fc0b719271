import math
from math import gcd

import numpy as np
import pytest

from carlesonlab.arithmetic import (
    MajorBox,
    ReducedRational,
    enumerate_shell,
    find_box_overlaps,
    gauss_decay_scan,
    gauss_row,
    gauss_rows,
    gauss_sum,
    odd_q_modulus_deviation,
    shell_size,
    square_class_reps,
)


def brute_shell(s):
    out = []
    for q in range(2 ** (s - 1), 2 ** s):
        for a in range(q):
            for b in range(q):
                if gcd(gcd(a, b), q) == 1:
                    out.append((q, a, b))
    return out


def raw_gauss(A, B, Q):
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
        assert ReducedRational(4, 2, 1).shell == 3


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
            a_list = np.unique(rng.integers(0, q, size=4))
            b = int(rng.integers(0, q))
            rows = gauss_rows(a_list, q)
            assert rows.shape == (len(a_list), q)
            for a, row in zip(a_list.tolist(), rows):
                assert np.array_equal(row, gauss_row(a, q))
                assert abs(row[b] - raw_gauss(a, b, q)) <= 1e-12

    def test_unit_orbit_invariance(self):
        # S(A u^2, B u, Q) = S(A, B, Q) exactly (index substitution)
        rng = np.random.default_rng(5)
        for _ in range(30):
            q = int(rng.integers(3, 500))
            units = [u for u in range(1, q) if gcd(u, q) == 1]
            a = units[rng.integers(len(units))]
            b = int(rng.integers(0, q))
            u = units[rng.integers(len(units))]
            s1 = raw_gauss(a, b, q)
            s2 = raw_gauss((a * u * u) % q, (b * u) % q, q)
            assert abs(s1 - s2) <= 1e-12

    def test_noncoprime_A_vanishes(self):
        # gcd(A, Q) = d > 1 with gcd(A, B, Q) = 1 forces S = 0: the inner
        # geometric sum over the period Q/d of the quadratic part vanishes
        # unless d | B, impossible for reduced triples.
        for (a, b, q) in [(2, 1, 4), (3, 1, 9), (6, 5, 8), (10, 3, 25)]:
            assert gcd(gcd(a, b), q) == 1 and gcd(a, q) > 1
            assert abs(raw_gauss(a, b, q)) <= 1e-12

    def test_square_class_reps_cover_units(self):
        for q in (7, 12, 16, 45):
            reps = square_class_reps(q)
            units = [u for u in range(1, q) if gcd(u, q) == 1]
            squares = {(u * u) % q for u in units}
            covered = {(r * s) % q for r in reps for s in squares}
            assert covered == set(units)

    def test_modulus_law_small(self):
        rep = odd_q_modulus_deviation(99)
        assert rep["max_deviation"] <= 1e-12

    def test_decay_scan_small(self):
        scan = gauss_decay_scan(64)
        # worst case is Q=2 where |S| = 1: the scaled max is 2^0.45
        assert abs(scan["max_scaled"] - 2.0 ** 0.45) <= 1e-9
        assert scan["argmax"]["Q"] == 2


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
