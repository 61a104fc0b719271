import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
from test_oracles import check_row

from carlesonlab.bumps import phi_hat
from carlesonlab.lambda_sets import cantor_set
from carlesonlab import operators, oscillatory
from carlesonlab.multiplier import _frac_lam_msq
from carlesonlab.operators import (
    Signal,
    _bourgain_multipliers,
    _bourgain_size,
    _chirp,
    _dyadic_lambdas,
    _oscillatory_multipliers,
    _oscillatory_size,
    _pointwise_sup,
    _separated_theta,
    _single_l_size,
    _sup_ratio,
    apply_kernel,
    bourgain_growth_report,
    carleson_max,
    kernel_taps,
    norm_probe,
    oscillatory_growth_report,
    single_l_report,
)
from carlesonlab.oscillatory import h_row, psi_hat

# frozen from the pre-build run: R = 2^12 -> 2^13 changed the norm by 0.0034%
TRUNCATION_STABILITY_CAP = 0.01
# frozen: the lam -> 0 multiplier is a truncated-Hilbert-type symbol of
# sup-size ~2.7 (the full symbol has modulus pi)
HILBERT_SYMBOL_RATIO_CAP = 4.0
# three separated points at nonzero grid shifts (35, 141 and 251 at G = 256);
# the one near 1 puts its shifted table across the wrap
SHIFTED_THETA = np.array([0.137, 0.55, 0.981])


def _ratio(mults, f):
    """||sup over the multipliers of |F^-1(mult * f^)|||_2 / ||f||_2."""
    return float(_sup_ratio(mults, sfft.fft(f)[None])[0] / np.linalg.norm(f))


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
            check_row("operators.apply_kernel", (f, R, [lam]))

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


class TestChirp:
    def test_equals_np_exp_of_the_reduced_phase(self):
        # the kernel taps' and trial chirps' phase, as np.exp formed it
        m = np.arange(2 ** 14 + 1, dtype=np.int64)
        for lam in [0.0, -0.3717, -2.5, -1e-300, np.nextafter(1.0, 0.0),
                    *cantor_set(3, 5).floats]:
            ref = np.exp(2j * np.pi * _frac_lam_msq(float(lam) % 1.0, m))
            assert _chirp(lam, m).tobytes() == ref.tobytes(), lam


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
        check_row("operators.carleson_max", (f, 40, [0.125, 0.37, 0.81]))

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


class TestPointwiseSup:
    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(17)
        n = 256
        fhat = sfft.fft(rng.standard_normal((5, n))
                        + 1j * rng.standard_normal((5, n)), axis=1)
        a, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for _ in range(2))
        zero = np.zeros(n, dtype=complex)
        # zeros and repeats, leading, trailing, consecutive and apart
        mults = [zero, a, a.copy(), zero, b, b.copy(), b.copy(), a, zero,
                 zero, a]
        return mults, fhat

    @pytest.mark.parametrize("out_len", [256, 200])
    def test_skipping_is_bit_identical(self, case, out_len):
        # as a list, and as the generator carleson_max passes
        mults, fhat = case
        check_row("operators._pointwise_sup", (mults, fhat, out_len, "list"),
                  (mults, fhat, out_len, "iter"))

    def test_fhat_is_left_unchanged(self, case):
        mults, fhat = case
        before = fhat.copy()
        _pointwise_sup(mults, fhat, 256)
        assert fhat.tobytes() == before.tobytes()

    def test_zero_multiplier_kept_for_non_finite_fhat(self, case):
        # 0 * inf is NaN, so an all-zero multiplier is not skipped there
        mults, fhat = case
        fhat = fhat.copy()
        fhat[0, 3] = np.inf
        zero = np.zeros(256, dtype=complex)
        with np.errstate(invalid="ignore"):
            assert np.isnan(_pointwise_sup([zero], fhat, 256)[0]).all()
        check_row("operators._pointwise_sup", (mults, fhat, 256, "list"))

    def test_blocks_of_multipliers_are_bit_identical(self, monkeypatch):
        # 4 rows of 4096 points make blocks of 8 multipliers; 19 of the 30
        # below are transformed (zeros and repeats skipped), in blocks of
        # 8, 8 and 3
        rng = np.random.default_rng(19)
        n = 4096
        fhat = sfft.fft(rng.standard_normal((4, n))
                        + 1j * rng.standard_normal((4, n)), axis=1)
        distinct = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    for _ in range(19)]
        zero = np.zeros(n, dtype=complex)
        mults = [zero]
        for i, m in enumerate(distinct):
            mults.append(m)
            if i % 3 == 0:
                mults.append(m.copy())
            if i % 7 == 0:
                mults.append(zero)
        blocks = []
        fold = operators._fold_sup

        def recording_fold(sup, block, *args):
            blocks.append(len(block))
            return fold(sup, block, *args)

        monkeypatch.setattr(operators, "_fold_sup", recording_fold)
        for out_len in (n, 3000):
            del blocks[:]
            _pointwise_sup(iter(mults), fhat, out_len)
            assert blocks == [8, 8, 3]
            check_row("operators._pointwise_sup",
                      (mults, fhat, out_len, "iter"))
        # one row keeps blocks of one, unless the multipliers are one
        # array: then 32 of 4096 points fit a block, so all 19 go in one
        for form, want in (("list", [1] * 19), ("array", [19])):
            del blocks[:]
            check_row("operators._pointwise_sup", (mults, fhat[:1], n, form))
            assert blocks == want


def _norm_probe_per_trial(lam_values, lengths, trials, seed,
                          radius_factor=4):
    """norm_probe's rows with one _pointwise_sup call per trial signal."""
    lams = operators._lambda_floats(lam_values)
    rng = np.random.default_rng(seed)
    rows = []
    for L in lengths:
        R = radius_factor * L
        out_len, n = operators._conv_size(L, R)
        kernel_hats = [sfft.fft(kernel_taps(float(lam), R), n) for lam in lams]
        best, best_family = 0.0, None
        for family, sig in operators._trial_signals(L, lams, trials, rng):
            sup = _pointwise_sup(kernel_hats, sfft.fft(sig, n)[None, :],
                                 out_len)[0]
            ratio = float(np.linalg.norm(sup) / np.linalg.norm(sig))
            if ratio > best:
                best, best_family = ratio, family
        rows.append({"length": L, "radius": R, "max_ratio": best,
                     "argmax_family": best_family})
    return rows


class TestNormProbe:
    @pytest.mark.parametrize("block_points", [2 ** 17, 2000])
    def test_batched_rows_equal_one_call_per_trial(self, monkeypatch,
                                                   block_points):
        # 2000 points put the 64-length trials (n = 576) in blocks of 3
        # rows and the 128-length ones (n = 1152) in blocks of one
        monkeypatch.setattr(oscillatory, "_BLOCK_POINTS", block_points)
        for lam_values, lengths, trials in [
                (cantor_set(3, 3), [64, 128], 6), ([0.0, 0.1], [64], 11)]:
            rep = norm_probe(lam_values, lengths, trials=trials, seed=12)
            assert repr(rep["rows"]) == repr(_norm_probe_per_trial(
                lam_values, lengths, trials, seed=12))

    def test_first_maximum_keeps_its_family(self, monkeypatch):
        # equal signals tie; the first of them names the row, within a
        # block of 3 rows and across blocks
        def tied(L, lams, trials, rng):
            sig = np.random.default_rng(5).standard_normal(L) + 0j
            names = ["impulse", "chirp", "gaussian"]
            return [(names[i % 3], sig.copy()) for i in range(trials)]

        monkeypatch.setattr(operators, "_trial_signals", tied)
        monkeypatch.setattr(oscillatory, "_BLOCK_POINTS", 2000)
        rep = norm_probe([0.1], [64], trials=5, seed=0)
        assert rep["rows"][0]["argmax_family"] == "impulse"

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
        ratio = _ratio(_bourgain_multipliers(np.array([0.0]), [2.0, 4.0, 8.0],
                                             G), f)
        assert abs(ratio - 1.0) <= 1e-10

    def test_far_mode_is_invisible(self):
        G = 1024
        rng = np.random.default_rng(13)
        spec = np.zeros(G, dtype=complex)
        spec[:3] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = sfft.ifft(spec)
        one = _ratio(_bourgain_multipliers(np.array([0.0]), [8.0, 16.0], G), f)
        two = _ratio(_bourgain_multipliers(np.array([0.0, 0.5]), [8.0, 16.0],
                                           G), f)
        assert abs(one - two) <= 1e-12

    def test_table_is_the_pointwise_sum_at_nonzero_shifts(self):
        # per (g, n): phi_hat(lam d), d the signed torus distance of g/G
        # from theta_n
        check_row("operators._bourgain_multipliers",
                  (SHIFTED_THETA, [8.0, 40.0, 300.0], 256))

    @pytest.mark.parametrize("N, G", [(2, 256), (4, 256), (64, 8192)])
    def test_blocked_tables_are_the_per_lam_tables(self, N, G):
        # the bench op's sizes and criterion 09's largest, against the
        # pointwise sum per lam
        theta = _separated_theta(N, np.random.default_rng(N))
        tau = operators._theta_separation(theta)
        check_row("operators._bourgain_multipliers",
                  (theta, _dyadic_lambdas(1.0 / tau, 4.0 * G), G))

    @pytest.mark.parametrize("N, seed", [(2, 5), (8, 6), (32, 7)])
    def test_aligned_rows_need_the_multipliers_at_their_modes_only(self, N,
                                                                   seed):
        # the report's aligned rows vanish off the theta modes, so their
        # sups against the multipliers zeroed off those modes (at_cols,
        # whose all-zero rows are skipped) are their sups against the
        # full multipliers, bit for bit
        G = 256
        rng = np.random.default_rng(seed)
        theta = operators._separated_theta(N, rng)
        lams = operators._dyadic_lambdas(
            1.0 / operators._theta_separation(theta), 4.0 * G)
        mults = _bourgain_multipliers(theta, lams, G)
        fhat = sfft.fft(rng.standard_normal((3, G)), axis=1)
        cols = np.round(theta * G).astype(int) % G
        aligned, at_cols = np.zeros_like(fhat), np.zeros_like(mults)
        aligned[:, cols] = fhat[:, cols] + 1.0
        at_cols[:, cols] = mults[:, cols]
        assert _pointwise_sup(at_cols, aligned, G).tobytes() \
            == _pointwise_sup(mults, aligned, G).tobytes()

    def test_growth_report_runs(self, monkeypatch):
        monkeypatch.setattr(operators, "_THETA_DRAWS", 2)
        rep = bourgain_growth_report([2, 4, 8], G=1024, trials=8, seed=3)
        assert [r["N"] for r in rep["rows"]] == [2, 4, 8]
        assert all(np.isfinite(r["max_ratio"]) for r in rep["rows"])


class TestOscillatoryProbe:
    def test_singleton_grid_is_plain_ratio(self):
        G = 512
        rng = np.random.default_rng(14)
        f = rng.standard_normal(G) + 1j * rng.standard_normal(G)
        lam = 2.0 ** -10
        tau = 1.0 / 8
        k_max = 7
        got = _ratio(_oscillatory_multipliers(np.array([0.0]), tau, 3, k_max,
                                              [lam], G), f)
        # direct single-multiplier computation
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
        got = _ratio(_oscillatory_multipliers(np.array([0.0]), tau, 3, 7,
                                              [lam], G), f)
        xi = sfft.fftfreq(G)
        sym = sum(psi_hat(2.0 ** k * xi) for k in range(3, 8)) * phi_hat(tau * xi)
        ref = np.linalg.norm(np.abs(sfft.ifft(sym * sfft.fft(f)))) \
            / np.linalg.norm(f)
        assert abs(got - ref) <= 1e-5
        assert got <= HILBERT_SYMBOL_RATIO_CAP

    def test_table_is_the_pointwise_sum_at_nonzero_shifts(self):
        # k >= 5 and lam > 0, where h_row is within 1e-12 of h_scaled
        tau = 1.0 / 12
        check_row("operators._oscillatory_multipliers",
                  (SHIFTED_THETA, tau, 5, 6, [tau * tau / 4, tau * tau], 256))

    @pytest.mark.parametrize("N, G", [(4, 1024), (16, 1024), (64, 8192)])
    def test_scale_rows_give_the_per_lam_tables(self, N, G):
        # the bench op's sizes and G = 8192 with N = 64, against the per-lam
        # loop over h_row that the (lam, G) arrays replaced
        theta = _separated_theta(N, np.random.default_rng(N))
        tau = 1.0 / (4.0 * N)
        lams = _dyadic_lambdas(tau * tau / 16.0, tau * tau)
        k0, k_max = 3, int(math.log2(G)) - 2
        window = phi_hat(tau * sfft.fftfreq(G))
        shifts = [int(round(th * G)) % G for th in theta]
        got = _oscillatory_multipliers(theta, tau, k0, k_max, lams, G)
        assert len(got) == len(lams)
        for lam, mult in zip(lams, got):
            base = np.zeros(G, dtype=complex)
            for k in range(k0, k_max + 1):
                base += h_row(k, float(lam), G)
            base *= window
            ref = np.zeros(G, dtype=complex)
            for sh in shifts:
                ref += np.roll(base, sh)
            assert mult.tobytes() == ref.tobytes(), lam

    @pytest.mark.parametrize("k0", [1, 7, 9])
    def test_report_rejects_what_the_probe_rejects(self, monkeypatch, k0):
        # the report sums scales k0..log2(G) - 2, which is 2..6 at G = 256,
        # and checks k0 before it draws anything
        def refuse(*args):
            raise AssertionError("theta was drawn")

        monkeypatch.setattr(operators, "_separated_theta", refuse)
        message = f"k0 must lie in [2, 6] on grid G = 256, got {k0}"
        with pytest.raises(ValueError, match=re.escape(message)):
            oscillatory_growth_report([4], G=256, k0=k0, trials=1, seed=0)


class TestSingleL:
    @pytest.mark.parametrize("l", [-3, 0, 2, 6])
    def test_every_row_is_at_the_scale_of_its_lambda(self, monkeypatch, l):
        # G = 1024 gives k_hi = 8: scales max(4, l + 2)..8, 8 lam per scale
        calls = []

        def recording_h_row(k, lam, G):
            calls.append((k, lam))
            return h_row(k, lam, G)

        monkeypatch.setattr(operators, "h_row", recording_h_row)
        rep = single_l_report([l], G=1024, trials=1, seed=0)
        ks = range(max(4, l + 2), 9)
        assert [k for k, _ in calls] == [k for k in ks for _ in range(8)]
        assert rep["rows"][0]["n_lambda"] == len(calls)
        for k, lam in calls:
            assert 1.0 <= lam * 2.0 ** (2 * k - l) < 2.0, (k, lam)

    def test_report_decays(self):
        rep = single_l_report([0, 4, 8], G=2 ** 13, trials=4, seed=9)
        ratios = [r["max_ratio"] for r in rep["rows"]]
        assert ratios[0] > ratios[-1] > 0
        assert rep["slope_log2_ratio_vs_l"] < 0


@pytest.mark.parametrize("report, args", [
    (bourgain_growth_report, ([2], 256)),
    (oscillatory_growth_report, ([4], 256, 3)),
    (single_l_report, ([0], 1024)),
])
def test_growth_reports_reject_zero_trials(report, args):
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        report(*args, trials=0, seed=0)


def test_growth_reports_record_their_fixed_grids():
    # these keys are artifact bytes: the values the reports always used
    bg = bourgain_growth_report([2], G=256, trials=2, seed=0)
    og = oscillatory_growth_report([4], G=256, k0=3, trials=1, seed=0)
    sl = single_l_report([0], G=1024, trials=1, seed=0)
    assert (bg["per_octave"], bg["lam_max"]) == (8, 1024.0)
    assert og["per_octave"] == 8
    assert (sl["per_octave"], sl["k_lo"], sl["k_hi"]) == (8, 4, 8)


@pytest.mark.parametrize("report, size, args", [
    (bourgain_growth_report, _bourgain_size, ([16], 2048, 50)),
    (oscillatory_growth_report, _oscillatory_size, ([1], 1024, 3, 2)),
    (single_l_report, _single_l_size, ([0, 6], 4096, 2)),
], ids=["bourgain", "oscillatory", "single-l"])
def test_size_bounds_the_largest_array(report, size, args):
    # the traced peak holds an array of the size (16 bytes an entry) and
    # at most a few of the size or of one batch
    entries = size(*args)
    tracemalloc.start()
    try:
        report(*args, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 * entries <= peak \
        <= 4 * 16 * max(entries, oscillatory._BLOCK_POINTS)


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.array([], dtype=complex))
    with pytest.raises(ValueError):
        Signal(np.array([np.nan + 0j]))
