import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from carlesonlab.bumps import phi_hat
from carlesonlab.lambda_sets import cantor_set
from carlesonlab.operators import (
    Signal,
    apply_kernel,
    apply_kernel_brute,
    bourgain_growth_report,
    bourgain_max_probe,
    carleson_max,
    kernel_taps,
    norm_probe,
    oscillatory_growth_report,
    oscillatory_max_probe,
    signal_from_json,
    signal_to_json,
    single_l_max_probe,
    single_l_report,
)
from carlesonlab.oscillatory import psi_hat

# frozen from the pre-build run: R = 2^12 -> 2^13 changed the norm by 0.0034%
TRUNCATION_STABILITY_CAP = 0.01
# frozen: the lam -> 0 multiplier is a truncated-Hilbert-type symbol of
# sup-size ~2.7 (the full symbol has modulus pi)
HILBERT_SYMBOL_RATIO_CAP = 4.0


class TestApplyKernel:
    def test_impulse_response_is_kernel(self):
        f = Signal(np.array([1.0 + 0j]))
        out = apply_kernel(f, 0.0, 4)
        m = np.arange(-4, 5, dtype=float)
        expect = np.divide(1.0, m, out=np.zeros_like(m), where=m != 0)
        assert out.origin == -4
        assert np.max(np.abs(out.samples - expect)) <= 1e-14

    def test_lambda_periodicity(self):
        rng = np.random.default_rng(0)
        f = Signal(rng.standard_normal(30) + 1j * rng.standard_normal(30))
        a = apply_kernel(f, 0.375, 20)
        b = apply_kernel(f, 1.375, 20)
        assert np.max(np.abs(a.samples - b.samples)) == 0.0

    def test_fft_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(6):
            L = int(rng.integers(2, 512))
            R = int(rng.integers(1, 1024))
            lam = float(rng.random())
            f = Signal(rng.standard_normal(L) + 1j * rng.standard_normal(L))
            x = apply_kernel(f, lam, R)
            y = apply_kernel_brute(f, lam, R)
            assert x.origin == y.origin
            assert np.max(np.abs(x.samples - y.samples)) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        g = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        a, b = 1.7 - 0.3j, -2.2 + 1.1j
        lhs = apply_kernel(Signal(a * f + b * g), 0.27, 64).samples
        rhs = a * apply_kernel(Signal(f), 0.27, 64).samples \
            + b * apply_kernel(Signal(g), 0.27, 64).samples
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_translation_covariance(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        base = apply_kernel(Signal(f, origin=0), 0.41, 32)
        shifted = apply_kernel(Signal(f, origin=7), 0.41, 32)
        assert shifted.origin == base.origin + 7
        assert np.array_equal(shifted.samples, base.samples)
        # embedding the same content at an offset shifts samples exactly
        g = np.concatenate([np.zeros(5, complex), f])
        emb = apply_kernel(Signal(g, origin=0), 0.41, 32)
        assert np.max(np.abs(emb.samples[5:5 + len(base.samples)]
                             - base.samples)) <= 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            apply_kernel(Signal(np.ones(4, complex)), 0.1, 2 ** 23 + 1)

    def test_tap_antisymmetry(self):
        # taps(-m) = -taps(m): e(lam m^2)/(-m) with e(lam m^2) even in m
        taps = kernel_taps(0.3717, 16)
        m = np.arange(1, 17)
        assert np.max(np.abs(taps[16 - m] + taps[16 + m])) == 0.0
        assert taps[16] == 0.0
        assert np.count_nonzero(taps) == 32

    def test_taps_reject_bad_radius(self):
        with pytest.raises(ValueError):
            kernel_taps(0.1, 0)


class TestCarlesonMax:
    def test_singleton_equals_modulus(self):
        rng = np.random.default_rng(4)
        f = Signal(rng.standard_normal(32) + 1j * rng.standard_normal(32))
        got = carleson_max(f, [0.37], 64)
        ref = np.abs(apply_kernel(f, 0.37, 64).samples)
        assert np.max(np.abs(got.samples.real - ref)) == 0.0

    def test_three_lambdas_match_brute_force_max(self):
        rng = np.random.default_rng(7)
        f = Signal(rng.standard_normal(48) + 1j * rng.standard_normal(48))
        lams = [0.125, 0.37, 0.81]
        got = carleson_max(f, lams, 40)
        ref = np.max([np.abs(apply_kernel_brute(f, lam, 40).samples)
                      for lam in lams], axis=0)
        assert got.origin == f.origin - 40
        assert np.max(np.abs(got.samples.real - ref)) <= 1e-12

    def test_monotone_in_modulation_set(self):
        rng = np.random.default_rng(5)
        lam = cantor_set(3, 3)
        f = Signal(rng.standard_normal(64) + 1j * rng.standard_normal(64))
        full = carleson_max(f, lam, 128).samples.real
        sub = carleson_max(f, lam.floats[:3], 128).samples.real
        assert np.all(sub <= full + 1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            carleson_max(Signal(np.ones(4, complex)), [], 8)

    def test_aligned_chirp_beats_gaussian(self):
        lam = cantor_set(3, 3)
        lam0 = float(lam.floats[3])
        L, R = 256, 512
        n = np.arange(L)
        chirp = Signal(np.exp(2j * np.pi * ((lam0 * n * n) % 1.0)))
        rng = np.random.default_rng(6)
        chirp_ratio = carleson_max(chirp, lam, R).norm2() / chirp.norm2()
        worst_gauss = 0.0
        for _ in range(5):
            g = Signal(rng.standard_normal(L) + 1j * rng.standard_normal(L))
            worst_gauss = max(worst_gauss,
                              carleson_max(g, lam, R).norm2() / g.norm2())
        assert chirp_ratio > worst_gauss

    def test_truncation_stability(self):
        rng = np.random.default_rng(99)
        f = Signal(rng.standard_normal(256) + 1j * rng.standard_normal(256))
        lam = cantor_set(3, 4)
        n1 = carleson_max(f, lam, 2 ** 12).norm2()
        n2 = carleson_max(f, lam, 2 ** 13).norm2()
        assert abs(n2 - n1) / n1 <= TRUNCATION_STABILITY_CAP


class TestNormProbe:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            norm_probe([0.0], [64], trials=0, seed=1)

    def test_classical_kernel_plateaus(self):
        rep = norm_probe([0.0], [128, 256, 512], trials=12, seed=8)
        ratios = [r["max_ratio"] for r in rep["rows"]]
        assert ratios[2] / ratios[1] < 1.05

    def test_report_is_deterministic(self):
        a = norm_probe(cantor_set(3, 3), [64, 128], trials=6, seed=11)
        b = norm_probe(cantor_set(3, 3), [64, 128], trials=6, seed=11)
        assert a == b

    def test_radius_factor(self):
        rep = norm_probe([0.1], [16, 32], trials=1, seed=0, radius_factor=2)
        assert [r["radius"] for r in rep["rows"]] == [32, 64]

    @pytest.mark.parametrize("lengths", [[2 ** 23], [64, 2 ** 23]])
    def test_size_cap_checked_before_any_transform(self, lengths):
        # 2^23 + 2 * 4 * 2^23 exceeds SIZE_CAP; every length is sized first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds cap"):
                norm_probe([0.1], lengths, trials=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestBourgainProbe:
    def test_single_frequency_ratio_one(self):
        G = 1024
        rng = np.random.default_rng(12)
        spec = np.zeros(G, dtype=complex)
        spec[:3] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = sfft.ifft(spec)  # spectrum inside |xi| <= 2/G << 1/(8 lam_max)
        ratio = bourgain_max_probe([0.0], G, [2.0, 4.0, 8.0], f)
        assert abs(ratio - 1.0) <= 1e-10

    def test_far_mode_is_invisible(self):
        G = 1024
        rng = np.random.default_rng(13)
        spec = np.zeros(G, dtype=complex)
        spec[:3] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = sfft.ifft(spec)
        one = bourgain_max_probe([0.0], G, [8.0, 16.0], f)
        two = bourgain_max_probe([0.0, 0.5], G, [8.0, 16.0], f)
        assert abs(one - two) <= 1e-12

    def test_separation_violated(self):
        with pytest.raises(ValueError):
            bourgain_max_probe([0.1, 0.1], 256, [8.0], np.ones(256, complex))

    def test_lambda_below_inverse_separation(self):
        with pytest.raises(ValueError):
            bourgain_max_probe([0.0, 0.5], 256, [1.0], np.ones(256, complex))

    def test_growth_report_runs(self):
        rep = bourgain_growth_report([2, 4, 8], G=1024, trials=8, seed=3,
                                     theta_draws=2)
        assert [r["N"] for r in rep["rows"]] == [2, 4, 8]
        assert all(np.isfinite(r["max_ratio"]) for r in rep["rows"])


class TestOscillatoryProbe:
    def test_singleton_grid_is_plain_ratio(self):
        G = 512
        rng = np.random.default_rng(14)
        f = rng.standard_normal(G) + 1j * rng.standard_normal(G)
        lam = 2.0 ** -10
        tau = 1.0 / 8
        got = oscillatory_max_probe([0.0], tau, 3, G, [lam], f)
        # direct single-multiplier computation
        from carlesonlab.oscillatory import h_row
        k_max = 7
        xi = sfft.fftfreq(G)
        mult = sum(h_row(k, lam, G) for k in range(3, k_max + 1)) \
            * phi_hat(tau * xi)
        ref = np.linalg.norm(np.abs(sfft.ifft(mult * sfft.fft(f)))) \
            / np.linalg.norm(f)
        assert abs(got - ref) <= 1e-12

    def test_small_lambda_matches_hilbert_type_symbol(self):
        G = 512
        rng = np.random.default_rng(15)
        f = rng.standard_normal(G) + 1j * rng.standard_normal(G)
        tau = 1.0 / 8
        lam = 1e-9
        got = oscillatory_max_probe([0.0], tau, 3, G, [lam], f)
        xi = sfft.fftfreq(G)
        sym = sum(psi_hat(2.0 ** k * xi) for k in range(3, 8)) * phi_hat(tau * xi)
        ref = np.linalg.norm(np.abs(sfft.ifft(sym * sfft.fft(f)))) \
            / np.linalg.norm(f)
        assert abs(got - ref) <= 1e-5
        assert got <= HILBERT_SYMBOL_RATIO_CAP

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            oscillatory_max_probe([0.0], 1 / 8, 3, 256, [0.5],
                                  np.ones(256, complex))

    def test_scale_range_enforced(self):
        with pytest.raises(ValueError):
            oscillatory_max_probe([0.0], 1 / 8, 9, 256, [1e-4],
                                  np.ones(256, complex))

    @pytest.mark.parametrize("k0", [1, 7, 9])
    def test_report_rejects_what_the_probe_rejects(self, k0):
        # G = 256 fits kernel scales 2 <= k <= 6
        with pytest.raises(ValueError, match="k0"):
            oscillatory_max_probe([0.0], 1 / 8, k0, 256, [1e-4],
                                  np.ones(256, complex))
        with pytest.raises(ValueError, match="k0"):
            oscillatory_growth_report([4], G=256, k0=k0, trials=1, seed=0)


class TestSingleL:
    def test_singleton_grid(self):
        G = 512
        rng = np.random.default_rng(16)
        f = rng.standard_normal(G) + 1j * rng.standard_normal(G)
        lam = 2.0 ** -10
        got = single_l_max_probe(0, G, [lam], f)
        from carlesonlab.oscillatory import ScaleIndex, h_row
        s = ScaleIndex.from_lambda(0, lam)
        mult = h_row(s.k, lam, G)
        ref = np.linalg.norm(np.abs(sfft.ifft(mult * sfft.fft(f)))) \
            / np.linalg.norm(f)
        assert abs(got - ref) <= 1e-12

    def test_zero_signal(self):
        assert single_l_max_probe(0, 256, [2.0 ** -8], np.zeros(256, complex)) == 0.0

    def test_unrepresentable_scale_rejected(self):
        with pytest.raises(ValueError):
            single_l_max_probe(0, 256, [0.9], np.ones(256, complex))

    def test_report_decays(self):
        rep = single_l_report([0, 4, 8], G=2 ** 13, trials=4, seed=9)
        ratios = [r["max_ratio"] for r in rep["rows"]]
        assert ratios[0] > ratios[-1] > 0
        assert rep["slope_log2_ratio_vs_l"] < 0


@pytest.mark.parametrize("probe", [
    lambda f: bourgain_max_probe([0.0, 0.5], 256, [1.0], f),
    lambda f: oscillatory_max_probe([0.0], 1 / 8, 3, 256, [0.5], f),
    lambda f: single_l_max_probe(0, 256, [0.9], f),
], ids=["bourgain", "oscillatory", "single_l"])
def test_zero_signal_still_validates_lambda_grid(probe):
    with pytest.raises(ValueError):
        probe(np.zeros(256, complex))


def test_growth_reports_record_their_fixed_grids():
    # these keys are artifact bytes: the values the reports always used
    bg = bourgain_growth_report([2], G=256, trials=2, seed=0)
    og = oscillatory_growth_report([4], G=256, k0=3, trials=1, seed=0)
    sl = single_l_report([0], G=1024, trials=1, seed=0)
    assert (bg["per_octave"], bg["lam_max"]) == (8, 1024.0)
    assert og["per_octave"] == 8
    assert (sl["per_octave"], sl["k_lo"], sl["k_hi"]) == (8, 4, 8)


def test_signal_json_roundtrip():
    sig = Signal(np.array([1 + 2j, -0.5 + 0j]), origin=-3)
    back = signal_from_json(signal_to_json(sig))
    assert back.origin == -3
    assert np.array_equal(back.samples, sig.samples)


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.array([], dtype=complex))
    with pytest.raises(ValueError):
        Signal(np.array([np.nan + 0j]))
