import math

import numpy as np
import pytest
import scipy.fft as sfft
from test_oracles import H_ROW_BINS, H_ROW_MISSES, check_row

from carlesonlab.bumps import phi_hat, psi_k
from carlesonlab.oscillatory import h_j, h_row, h_scaled, psi_hat
from carlesonlab.oscillatory import (_BLOCK_POINTS, _blocks, _direct_scaled,
                                     _direct_rule, _dual_rule, _dual_scaled,
                                     _expi, _h_rows, _psi_hat_table, _refine)

# constants frozen from the pre-build sweeps (measured value, 2x headroom)
ENVELOPE_CAP = 50.0         # asserted bound; pre-build sweep measured 4.70
EST_VALUE_CAP = 10.0        # measured 4.71 (l<=0) / 4.05 (l>0)
EST_DERIVATIVE_CAP = 25.0   # measured 10.1 (l<=0) / 4.01 (l>0)


def _osc_norm(j, x, y):
    """Scale-j anisotropic size 2**(2j)|x| + 2**j |y|."""
    return (4.0 ** j) * abs(x) + (2.0 ** j) * abs(y)


def _envelope_ratio(j, samples):
    """max over samples of |H_j| / min(norm_j, norm_j**-1/2)."""
    worst = 0.0
    for x, y in samples:
        n = _osc_norm(j, x, y)
        worst = max(worst, abs(h_j(j, x, y, 1e-10)) / min(n, n ** -0.5))
    return worst


def _mu(lam, k, tol=1e-10):
    """Zero Fourier mode of the scale-k chirp kernel: H_k(lam, 0)."""
    return h_scaled(lam * 4.0 ** k, 0.0, tol)


def _phi_kl_hat(l, lam, k, xi, tol=1e-10):
    """Mean-zero multiplier piece H_k(lam, xi) - mu * phi_hat(2**k_l xi),
    with k_l = k for l <= 0 and k - l for l > 0."""
    k_l = k if l <= 0 else k - l
    val = h_scaled(lam * 4.0 ** k, xi * 2.0 ** k, tol)
    return val - _mu(lam, k, tol) * complex(phi_hat(math.ldexp(xi, k_l)))


class TestHj:
    def test_zero_at_origin(self):
        assert h_j(5, 0.0, 0.0) == 0.0

    def test_odd_reflection(self):
        assert h_j(4, 0.001, -0.2) == -h_j(4, 0.001, 0.2)

    def test_against_dense_trapezoid(self):
        # dense-grid oracle: 10^6-node trapezoid at j=8
        check_row("oscillatory.h_j", (8, 2.0 ** -14, 2.0 ** -6))

    @pytest.mark.parametrize("j,x,y", [
        (4, 0.001, -0.2), (6, 0.01, 0.3), (10, 2.0 ** -21, 2.0 ** -11),
    ])
    def test_more_oracle_points(self, j, x, y):
        check_row("oscillatory.h_j", (j, x, y))

    def test_conjugation(self):
        a = h_j(6, -0.003, -0.11)
        b = h_j(6, 0.003, 0.11)
        assert abs(a - np.conj(b)) <= 1e-12

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            h_j(-1, 0.0, 0.0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            h_j(4, 0.0, 0.0, tol=1e-3)
        with pytest.raises(ValueError):
            h_j(4, 0.0, 0.0, tol=1e-15)

    def test_direct_and_dual_paths_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            X = float(rng.uniform(2 ** 12, 2 ** 13))
            Y = float(rng.uniform(-(2 ** 12), 2 ** 12))
            d = _refine(lambda p: _direct_scaled(X, Y, p),
                        max(16, int(4 * (X + abs(Y)))), 1e-12)
            f = _refine(lambda p: _dual_scaled(X, Y, p), 256, 1e-12)
            assert abs(d - f) <= 1e-10

    def test_x_zero_is_psi_hat(self):
        y = 0.37
        assert abs(h_j(6, 0.0, y) - psi_hat(y * 2.0 ** 6)) <= 1e-13


class TestHRow:
    def test_matches_pointwise(self):
        # every k from 2 to 10 at lam = 0 and 1e-4, G = 4096, but the misses
        # the oracle table holds as strict xfails (ROADMAP item 3)
        check_row("oscillatory.h_row", *[
            (k, lam, 4096, H_ROW_BINS) for lam in (0.0, 1e-4)
            for k in range(2, 11) if (k, lam) not in H_ROW_MISSES])

    def test_rejects_oversize_kernel(self):
        with pytest.raises(ValueError):
            h_row(9, 1e-4, 256)

    @pytest.mark.parametrize("G", [64, 256, 1024, 4096])
    def test_half_grid_chirp_is_the_full_grid_formula(self, G):
        # every k up to 2^(k+1) = G, where n = +-half share one FFT index
        compared = 0
        for k in range(int(math.log2(G))):
            for lam in (0.0, 1e-6, 3.7e-4, 2.0 ** -10, 0.004, 0.03, 0.1,
                        0.3, 0.7, 1.0):
                if G * 2 ** _h_row_log2_step(k, lam) > 2 ** 20:
                    continue  # an FFT of gigabytes at large lam and k
                assert h_row(k, lam, G).tobytes() \
                    == _h_row_full_grid(k, lam, G).tobytes(), (k, lam)
                compared += 1
        assert compared >= 4 * int(math.log2(G))


def _h_row_log2_step(k, lam):
    """h_row's p: the chirp is sampled at step 2^-p, the FFT is G * 2^p."""
    bandwidth = 2.0 * lam * 2.0 ** k + 0.5
    return max(0, math.ceil(math.log2(8 * bandwidth)), 5 - (k - 2))


def _h_row_full_grid(k, lam, G):
    """h_row with the chirp sampled at every n = -half..half."""
    p = _h_row_log2_step(k, lam)
    h = 2.0 ** (-p)
    nfft = G * 2 ** p
    half = int(round(2 ** k / h))
    n = np.arange(-half, half + 1, dtype=np.int64)
    t = n * h
    vals = np.exp(2j * np.pi * (lam * t * t)) * psi_k(k, t) * h
    buf = np.zeros(nfft, dtype=complex)
    buf[n % nfft] = vals
    spec = sfft.fft(buf)
    out = np.empty(G, dtype=complex)
    out[:G // 2] = spec[:G // 2]
    out[G // 2:] = spec[nfft - G + G // 2:]
    return out


class TestBatchedRows:
    @pytest.mark.parametrize("G, k", [(256, 2), (1024, 3), (1024, 6),
                                      (1024, 8), (4096, 5)])
    def test_rows_are_the_per_lam_rows_bit_for_bit(self, G, k):
        # twelve lams on one sampling step (in blocks of 8 and 4 where that
        # step's FFT has 2^14 points), then lams spread over several steps,
        # in no particular order
        spread = [lam for lam in np.geomspace(1.0, 1e-4, 13)
                  if G * 2 ** _h_row_log2_step(k, lam) <= 2 ** 19]
        lams = [1e-6 * (1.0 + i / 64) for i in range(12)] + spread \
            + [0.0, 2.0 ** -10]
        steps = {_h_row_log2_step(k, lam) for lam in lams}
        assert len(steps) >= 3
        rows = _h_rows(k, lams, G)
        assert rows.shape == (len(lams), G)
        for lam, row in zip(lams, rows):
            ref = _h_row_full_grid(k, lam, G)
            assert row.tobytes() == ref.tobytes(), lam
            assert h_row(k, lam, G).tobytes() == ref.tobytes(), lam

    def test_rejects_what_h_row_rejects(self):
        with pytest.raises(ValueError, match="does not fit"):
            _h_rows(9, [1e-4, 2e-4], 256)
        with pytest.raises(ValueError, match="power of two"):
            _h_rows(2, [1e-4], 100)


class TestBlocks:
    @pytest.mark.parametrize("n, points_each, sizes", [
        (3, 2 * _BLOCK_POINTS, [1, 1, 1]),      # an item alone overflows
        (3, _BLOCK_POINTS, [1, 1, 1]),
        (8, _BLOCK_POINTS // 4, [4, 4]),        # exact division
        (10, _BLOCK_POINTS // 4 + 1, [3, 3, 3, 1]),   # a remainder
        (5, 1, [5]),
        (0, 7, []),                             # empty input
    ])
    def test_consecutive_blocks_of_the_budget(self, n, points_each, sizes):
        blocks = list(_blocks(range(n), points_each))
        assert [len(b) for b in blocks] == sizes
        assert sum(blocks, []) == list(range(n))

    def test_generator_input_is_drawn_one_block_at_a_time(self):
        drawn = []

        def items():
            for i in range(5):
                drawn.append(i)
                yield i

        blocks = _blocks(items(), _BLOCK_POINTS // 2)
        assert next(blocks) == [0, 1] and drawn == [0, 1]
        assert list(blocks) == [[2, 3], [4]]


class TestExpi:
    def test_unit_interval_phases(self):
        # m_j's phases: 2 pi x for x = frac(...) in [0, 1), 0 included,
        # and the points of tests/test_multiplier.py's _SPECIAL
        x = np.concatenate([[0.0, 0.5, 0.25, 0.75, np.nextafter(1.0, 0.0),
                             -0.5, -np.nextafter(1.0, 0.0)],
                            np.random.default_rng(21).random(200_000)])
        assert _expi(2 * np.pi * x).tobytes() \
            == np.exp(2j * np.pi * x).tobytes()

    def test_dual_path_phases(self):
        # q = 1/(4X) for X >= 2^12 and r = (Y -+ u)^2 over |Y| <= 2^11 and
        # the psi-hat support of u
        rng = np.random.default_rng(22)
        u_cut = _psi_hat_table().u_cut
        for X in (2.0 ** 12, 5000.5, 3.3e5, 2.0 ** 30):
            q = 0.25 / X
            r = ((rng.random(50_000) - 0.5) * 2 ** 12
                 + rng.random(50_000) * u_cut) ** 2
            assert _expi(-2 * np.pi * q * r).tobytes() \
                == np.exp(-2j * np.pi * q * r).tobytes(), X

    def test_quadrature_paths_match_their_np_exp_forms(self):
        rng = np.random.default_rng(23)
        for X, Y, panels in [(0.3, 0.2, 16), (37.5, -12.25, 64),
                             (4000.0, 900.0, 4096)] + [
                (float(a), float(b), 256)
                for a, b in zip(rng.random(6) * 3000, rng.random(6) * 80 - 40)]:
            v, w, pv = _direct_rule(panels)
            vals = np.exp(2j * np.pi * X * v * v) \
                * (-2j * np.sin(2 * np.pi * Y * v)) * pv
            assert _bits(_direct_scaled(X, Y, panels)) \
                == _bits(np.sum(vals * w)), (X, Y)
        for X, Y, panels in [(4096.0, 3.0, 64), (1e5, -700.0, 512),
                             (2.0 ** 40, 10.0, 64)]:
            u, wq, ph = _dual_rule(panels)
            q = 0.25 / X
            vals = (np.exp(-2j * np.pi * q * (Y - u) ** 2)
                    - np.exp(-2j * np.pi * q * (Y + u) ** 2)) * ph
            ref = np.exp(0.25j * np.pi) / math.sqrt(2.0 * X) * np.sum(vals * wq)
            assert _bits(_dual_scaled(X, Y, panels)) == _bits(ref), (X, Y)


def _bits(z) -> bytes:
    return np.complex128(z).tobytes()


# each lam below is built as 2^(l-2k) c with 1 <= c < 2, so k is the single-l
# kernel scale of (l, lam): 1 <= lam 2^(2k-l) < 2
class TestMu:
    def test_vanishes_by_odd_symmetry(self):
        # the zero mode integrand is odd; quadrature measures the
        # cancellation rather than assuming it
        for l, k in [(0, 4), (6, 10), (-4, 6)]:
            lam = 2.0 ** (l - 2 * k) * 1.3
            assert abs(_mu(lam, k)) <= 1e-12

    def test_example_bound(self):
        # reference point k=10, l=6, lam=2^(6-20): |mu| <= C 2^-6 with C <= 10
        assert abs(_mu(2.0 ** (6 - 2 * 10), 10)) <= 10.0 * 2.0 ** -6

    def test_bound_sweep(self):
        worst = 0.0
        for l in range(-6, 7, 2):
            for k in (5, 8, 11):
                lam = 2.0 ** (l - 2 * k) * 1.5
                worst = max(worst, abs(_mu(lam, k)) / min(2.0 ** l, 2.0 ** -l))
        assert worst < 50.0


class TestPhiKlHat:
    def test_zero_frequency(self):
        k = 6
        lam = 2.0 ** (3 - 2 * k)
        assert abs(_phi_kl_hat(3, lam, k, 0.0)) <= 1e-12

    def test_negative_l_envelope(self):
        # |phi_hat_{k,lam,l}(xi)| <= C / (2^k |xi|) for l <= 0 and large z
        k = 5
        lam = 2.0 ** (-3 - 2 * k) * 1.2
        xi = 10.0 * 2.0 ** -k
        assert abs(_phi_kl_hat(-3, lam, k, xi)) <= EST_VALUE_CAP / (2.0 ** k * xi)

    def test_positive_l_band(self):
        # in the stationary band |xi| ~ 2^(l-k) the size is C 2^(-l/2)
        l, k = 8, 10
        lam = 2.0 ** (l - 2 * k) * 1.1
        xi = 2.0 ** (l - k)
        assert abs(_phi_kl_hat(l, lam, k, xi)) <= EST_VALUE_CAP * 2.0 ** (-l / 2.0)

    def test_envelope_sweep_both_signs_of_l(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for l in (-6, -2, 0, 2, 6):
            for k in (6, 9):
                lam = 2.0 ** (l - 2 * k) * 1.4
                for _ in range(10):
                    xi = (10.0 ** rng.uniform(-3, 1)) * 2.0 ** -k
                    z = 2.0 ** k * xi
                    if l <= 0:
                        env = min(z, 1.0 / z)
                    else:
                        zz = xi / 2.0 ** (l - k)
                        if zz <= 0.5:
                            env = 2.0 ** (k - 2 * l) * xi
                        elif zz <= 2.0:
                            env = 2.0 ** (-l / 2.0)
                        else:
                            env = 1.0 / z
                    worst = max(worst, abs(_phi_kl_hat(l, lam, k, xi)) / env)
        assert worst <= EST_VALUE_CAP

    def test_lambda_derivative_variant(self):
        # 2^(-2k) d/dlam of the mean-zero piece obeys the same envelopes
        worst = 0.0
        for l, k in [(-4, 7), (4, 8)]:
            lam = 2.0 ** (l - 2 * k) * 1.4
            h = lam * 1e-5
            for xi_scale in (0.03, 0.3, 3.0):
                xi = xi_scale * 2.0 ** -k
                vp = _phi_kl_hat(l, lam + h, k, xi, 1e-11)
                vm = _phi_kl_hat(l, lam - h, k, xi, 1e-11)
                dv = abs(vp - vm) / (2 * h) / 4.0 ** k
                z = 2.0 ** k * xi
                if l <= 0:
                    env = min(z, 1.0 / z)
                else:
                    zz = xi / 2.0 ** (l - k)
                    env = (2.0 ** (k - 2 * l) * xi if zz <= 0.5 else
                           2.0 ** (-l / 2.0) if zz <= 2.0 else 1.0 / z)
                worst = max(worst, dv / env)
        assert worst <= EST_DERIVATIVE_CAP


class TestEnvelope:
    def test_unit_shell(self):
        # samples on the shell _osc_norm = 1
        samples = []
        for frac in np.linspace(0.0, 1.0, 9):
            samples.append((frac / 4.0 ** 6, (1 - frac) / 2.0 ** 6))
        ratio = _envelope_ratio(6, samples)
        assert np.isfinite(ratio)
        assert ratio < ENVELOPE_CAP

    def test_full_sweep_single_constant(self):
        # 200 log-uniform samples per j in 4..14, one constant across j
        rng = np.random.default_rng(12345)
        worst = 0.0
        for j in range(4, 15):
            samples = []
            for _ in range(200):
                nrm = 10.0 ** rng.uniform(-3, 3)
                frac = rng.random()
                x = nrm * frac / 4.0 ** j * (1 if rng.random() < 0.5 else -1)
                y = nrm * (1 - frac) / 2.0 ** j * (1 if rng.random() < 0.5 else -1)
                samples.append((x, y))
            worst = max(worst, _envelope_ratio(j, samples))
        # pre-build sweep measured 4.70
        assert worst < ENVELOPE_CAP

    def test_scale_uniformity(self):
        # constants for j=6 and j=10 agree within a factor 3
        rng = np.random.default_rng(11)
        consts = {}
        for j in (6, 10):
            samples = []
            for _ in range(100):
                nrm = 10.0 ** rng.uniform(-2, 2)
                frac = rng.random()
                samples.append((nrm * frac / 4.0 ** j,
                                nrm * (1 - frac) / 2.0 ** j))
            consts[j] = _envelope_ratio(j, samples)
        hi, lo = max(consts.values()), min(consts.values())
        assert hi / lo < 3.0
