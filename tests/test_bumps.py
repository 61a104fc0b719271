import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlesonlab.bumps import chi, chi_s, phi_hat, psi, psi_k


class TestPsi:
    def test_outside_support_inner(self):
        assert psi_k(0, 0.1) == 0.0

    def test_odd_symmetry_example(self):
        assert psi_k(3, -5.0) == -psi_k(3, 5.0)

    def test_two_term_truncation(self):
        # at t = 0.6 exactly the k = 0 and k = 1 pieces are active
        t = 0.6
        assert abs(psi_k(0, t) - (1.0 / t - psi_k(1, t))) <= 1e-12

    def test_support_bounds(self):
        t = np.linspace(-3, 3, 20001)
        vals = psi(t)
        assert np.all(vals[np.abs(t) < 0.25] == 0.0)
        assert np.all(vals[np.abs(t) > 1.0] == 0.0)
        assert np.max(np.abs(vals)) <= 4.0 + 1e-12

    def test_dyadic_resolution_exact(self):
        # sum over 0 <= k <= K recovers 1/t on 1 <= |t| <= 2^(K-2)
        K = 12
        t = np.concatenate([
            np.linspace(1.0, 2.0 ** (K - 2), 4001),
            -np.linspace(1.0, 2.0 ** (K - 2), 4001),
        ])
        total = sum(psi_k(k, t) for k in range(K + 1))
        assert np.max(np.abs(total - 1.0 / t)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-8.0, max_value=8.0,
                     allow_nan=False, allow_infinity=False))
    def test_odd_everywhere(self, t):
        assert psi(-t) == -psi(t)


class TestChi:
    def test_plateau(self):
        assert chi_s(1, 0.0) == 1.0
        assert chi(0.1) == 1.0

    def test_vanishing(self):
        assert chi_s(2, 0.01) == 0.0
        assert chi(0.2) == 0.0

    def test_transition_strict_interior(self):
        v = chi_s(1, 0.015)
        assert 0.0 < v < 1.0

    def test_rejects_bad_shell(self):
        with pytest.raises(ValueError):
            chi_s(0, 0.1)

    def test_even_and_sandwich(self):
        t = np.linspace(-0.5, 0.5, 10001)
        v = chi(t)
        assert np.array_equal(v, chi(-t))
        assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all(v[np.abs(t) <= 0.1] == 1.0)
        assert np.all(v[np.abs(t) >= 0.2] == 0.0)


class TestPhiHat:
    def test_plateau_and_support(self):
        assert phi_hat(0.0) == 1.0
        assert phi_hat(0.3) == 0.0
        v = phi_hat(3.0 / 16.0)
        assert 0.0 < v < 1.0

    def test_even_and_sandwich(self):
        xi = np.linspace(-0.6, 0.6, 10001)
        v = phi_hat(xi)
        assert np.array_equal(v, phi_hat(-xi))
        assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all(v[np.abs(xi) <= 0.125] == 1.0)
        assert np.all(v[np.abs(xi) >= 0.25] == 0.0)


def test_symmetries_at_random_points():
    rng = np.random.default_rng(500)
    t = rng.uniform(-2, 2, 10 ** 4)
    assert np.max(np.abs(psi(-t) + psi(t))) <= 1e-14
    assert np.max(np.abs(chi(-t) - chi(t))) <= 1e-14
    assert np.max(np.abs(phi_hat(-t) - phi_hat(t))) <= 1e-14

