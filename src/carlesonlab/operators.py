"""The truncated quadratic Carleson operator and torus-grid maximal probes.

``apply_kernel`` convolves a finitely supported signal with the taps
e(lam m^2)/m for 1 <= |m| <= R by cyclic FFT of length >= L + 2R (so the
linear convolution is exact), with the same exact phase reduction used
by the Weyl sums.  ``carleson_max`` takes the pointwise supremum of the
moduli over a finite modulation set.

The remaining probes discretize maximal multiplier operators on a
periodic grid of size G: position indices 0..G-1, frequencies g/G in
FFT layout.  They produce empirical *lower* bounds for operator norms
(max over trial families); the periodic grid stands in for the line and
is recorded in every report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .bumps import phi_hat
from .multiplier import _frac_lam_msq, _log2_slope
from .oscillatory import ScaleIndex, h_row
from .arithmetic import torus_delta

__all__ = [
    "Signal",
    "kernel_taps",
    "apply_kernel",
    "apply_kernel_brute",
    "carleson_max",
    "norm_probe",
    "bourgain_max_probe",
    "bourgain_growth_report",
    "oscillatory_max_probe",
    "oscillatory_growth_report",
    "single_l_max_probe",
    "single_l_report",
    "signal_to_json",
    "signal_from_json",
]

SIZE_CAP = 2 ** 24
_PER_OCTAVE = 8               # growth-report lambda grid points per octave
_SINGLE_L_K_LO = 4            # lowest kernel scale of the single-l report


@dataclass(frozen=True)
class Signal:
    """Finitely supported complex signal; samples[i] sits at origin + i."""

    samples: np.ndarray
    origin: int = 0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or len(s) < 1:
            raise ValueError("samples must be a nonempty 1-d array")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", s)

    def norm2(self) -> float:
        return float(np.linalg.norm(self.samples))


def kernel_taps(lam: float, R: int) -> np.ndarray:
    """Taps e(lam m^2)/m for m in [-R, R]; index m + R; zero at m = 0."""
    if R < 1:
        raise ValueError(f"radius must be >= 1, got {R}")
    m = np.arange(1, R + 1, dtype=np.int64)
    ph = np.exp(2j * np.pi * _frac_lam_msq(lam % 1.0, m))
    taps = np.zeros(2 * R + 1, dtype=complex)
    taps[R + 1:] = ph / m
    taps[R - 1::-1] = -ph / m
    return taps


def _conv_size(L: int, R: int) -> tuple[int, int]:
    """(out_len, n): the linear-convolution length L + 2R and the cyclic FFT
    length that holds it; raises past SIZE_CAP."""
    out_len = L + 2 * R
    if out_len > SIZE_CAP:
        raise ValueError(f"output length {out_len} exceeds cap {SIZE_CAP}")
    return out_len, sfft.next_fast_len(out_len)


def apply_kernel(f: Signal, lam: float, R: int) -> Signal:
    """Exact linear convolution with the truncated kernel via cyclic FFT."""
    out_len, n = _conv_size(len(f.samples), R)
    fh = sfft.fft(f.samples, n)
    kh = sfft.fft(kernel_taps(lam, R), n)
    conv = sfft.ifft(fh * kh)[:out_len]
    return Signal(samples=conv, origin=f.origin - R)


def apply_kernel_brute(f: Signal, lam: float, R: int) -> Signal:
    """Direct O(L R) summation; the oracle for the FFT path."""
    conv = np.convolve(f.samples, kernel_taps(lam, R))
    return Signal(samples=conv, origin=f.origin - R)


def _lambda_floats(lam_values) -> np.ndarray:
    if hasattr(lam_values, "floats"):
        arr = lam_values.floats
    else:
        arr = np.asarray([float(x) for x in lam_values], dtype=float)
    if len(arr) == 0:
        raise ValueError("modulation set must be nonempty")
    return np.unique(arr)


def _pointwise_sup(mults, fhat_rows: np.ndarray, out_len: int) -> np.ndarray:
    """Per row, the max over the multipliers of |F^-1(mult * fhat)| on the
    first out_len points."""
    sup = np.zeros((fhat_rows.shape[0], out_len))
    for mult in mults:
        vals = np.abs(sfft.ifft(fhat_rows * mult[None, :], axis=1)[:, :out_len])
        np.maximum(sup, vals, out=sup)
    return sup


def carleson_max(f: Signal, lam_values, R: int) -> Signal:
    """Pointwise sup over the modulation set of |truncated convolution|.

    Accepts a LambdaSet (its float images are used; duplicates collapse)
    or any iterable of floats.  The result is real-valued on the full
    output window of length L + 2R.
    """
    lams = _lambda_floats(lam_values)
    out_len, n = _conv_size(len(f.samples), R)
    best = _pointwise_sup(
        (sfft.fft(kernel_taps(float(lam), R), n) for lam in lams),
        sfft.fft(f.samples, n)[None, :], out_len)[0]
    return Signal(samples=best.astype(complex), origin=f.origin - R)


def _trial_signals(L: int, lams: np.ndarray, trials: int, rng) -> list:
    """Deterministic trial family: impulse, per-lambda chirps, Gaussians."""
    out = []
    imp = np.zeros(L, dtype=complex)
    imp[0] = 1.0
    out.append(("impulse", imp))
    n = np.arange(L, dtype=np.int64)
    for lam in lams:
        ph = np.exp(2j * np.pi * _frac_lam_msq(float(lam) % 1.0, n))
        out.append(("chirp", ph.copy()))
    while len(out) < trials:
        g = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        out.append(("gaussian", g))
    return out[:trials]


def norm_probe(lam_values, lengths, trials: int, seed: int,
               radius_factor: int = 4) -> dict:
    """Empirical l2 -> l2 ratio of the truncated Carleson operator.

    For each length L the radius is ``radius_factor * L`` and the trial
    family is an impulse, a chirp aligned with each modulation parameter,
    and seeded Gaussian noise, ``trials`` signals in total; the statistic
    is the max ratio ||C f||_2 / ||f||_2.  Ratios are lower bounds on the
    truncated operator norm.  Every length is sized against SIZE_CAP
    before any transform runs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    lengths = [int(x) for x in lengths]
    if not lengths or any(x < 1 for x in lengths):
        raise ValueError("lengths must be positive")
    lams = _lambda_floats(lam_values)
    radii = [radius_factor * L for L in lengths]
    sizes = [_conv_size(L, R) for L, R in zip(lengths, radii)]
    rng = np.random.default_rng(seed)
    rows = []
    for L, R, (out_len, n) in zip(lengths, radii, sizes):
        kernel_hats = [sfft.fft(kernel_taps(float(lam), R), n) for lam in lams]
        best = 0.0
        best_family = None
        for family, sig in _trial_signals(L, lams, trials, rng):
            sup = _pointwise_sup(kernel_hats, sfft.fft(sig, n)[None, :],
                                 out_len)[0]
            ratio = float(np.linalg.norm(sup) / np.linalg.norm(sig))
            if ratio > best:
                best, best_family = ratio, family
        rows.append({"length": L, "radius": R, "max_ratio": best,
                     "argmax_family": best_family})
    growth = [rows[i + 1]["max_ratio"] / rows[i]["max_ratio"]
              for i in range(len(rows) - 1)]
    return {
        "seed": seed,
        "trials": trials,
        "n_lambda": int(len(lams)),
        "rows": rows,
        "growth_ratios": growth,
    }


# ---------------------------------------------------------------------------
# torus-grid maximal probes
# ---------------------------------------------------------------------------

def _check_grid(G: int):
    if G < 16 or G & (G - 1):
        raise ValueError(f"grid size must be a power of two >= 16, got {G}")


def _theta_separation(theta) -> float:
    th = np.sort(np.asarray(theta, dtype=float) % 1.0)
    if len(th) == 1:
        return 1.0
    gaps = np.diff(np.append(th, th[0] + 1.0))
    tau = float(gaps.min())
    if tau <= 0.0:
        raise ValueError("theta values are not separated (duplicate points)")
    return tau


def _sup_ratio(multipliers, fhat_rows) -> np.ndarray:
    """||sup_lam |F^-1(mult * fhat)|||_2 per trial row."""
    return np.linalg.norm(
        _pointwise_sup(multipliers, fhat_rows, fhat_rows.shape[1]), axis=1)


def _probe_ratio(mults: list, f, G: int) -> float:
    """||sup_lam |F^-1(mult * f^)|||_2 / ||f||_2 for one length-G signal.

    The multipliers are built before this is called, so a zero signal
    still has its lambda grid validated.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (G,):
        raise ValueError(f"signal must have shape ({G},)")
    norm = np.linalg.norm(f)
    if norm == 0.0:
        return 0.0
    return float(_sup_ratio(mults, sfft.fft(f)[None, :])[0] / norm)


def _bourgain_multipliers(theta: np.ndarray, lams, G: int) -> list:
    """Per lam, sum_n phi_hat(lam * d(xi - theta_n)) at the grid frequencies.

    The signed torus distances d do not depend on lam, so they are taken
    once for all lam.
    """
    tau = _theta_separation(theta)
    if len(theta) > 1 and min(lams) <= 1.0 / tau:
        raise ValueError(
            f"lambda grid must lie in (1/tau, inf) = ({1.0/tau:g}, inf)"
        )
    d = torus_delta(sfft.fftfreq(G)[None, :] - theta[:, None])
    return [np.sum(phi_hat(lam * d), axis=0) for lam in lams]


def _oscillatory_multipliers(theta: np.ndarray, tau: float, k0: int,
                             k_max: int, lams, G: int) -> list:
    """Per lam, sum_n [sum_{k0 <= k <= k_max} H_k(lam, .)] * phi_hat(tau .)
    translated to the grid frequency nearest theta_n."""
    if k0 < 2:
        raise ValueError(f"k0 must be >= 2 (kernel must span a grid cell), got {k0}")
    if 2 ** (k_max + 1) > G:
        raise ValueError(f"k_max = {k_max} kernel does not fit grid G = {G}")
    if k0 > k_max:
        raise ValueError(f"empty scale range: k0 = {k0} > k_max = {k_max}")
    if not 0 < tau < 1:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    _theta_separation(theta)
    if max(lams) > tau * tau:
        raise ValueError("lambda grid must lie in (0, tau^2]")
    window = phi_hat(tau * sfft.fftfreq(G))
    shifts = [int(round(th * G)) % G for th in theta]
    mults = []
    for lam in lams:
        base = np.zeros(G, dtype=complex)
        for k in range(k0, k_max + 1):
            base += h_row(k, float(lam), G)
        base *= window
        mult = np.zeros(G, dtype=complex)
        for sh in shifts:
            mult += np.roll(base, sh)
        mults.append(mult)
    return mults


def _single_l_multipliers(l: int, lams, G: int) -> list:
    """Per lam, the single-scale chirp multiplier H_{k(lam,l)}(lam, .)."""
    kmax_fit = int(math.log2(G)) - 1
    mults = []
    for lam in lams:
        scale = ScaleIndex.from_lambda(l, lam)
        if scale.k < 2 or scale.k > kmax_fit:
            raise ValueError(
                f"lam = {lam:g} at l = {l} needs kernel scale k = {scale.k}, "
                f"outside the grid-representable range [2, {kmax_fit}]"
            )
        mults.append(h_row(scale.k, lam, G))
    return mults


def bourgain_max_probe(theta, G: int, lam_grid, f: np.ndarray) -> float:
    """Multi-frequency averaging probe: sup over lam of the plateau multiplier.

    For each lam the multiplier at grid frequency xi is
    sum_n phi_hat(lam * d(xi - theta_n)) with d the signed torus distance;
    every lam in the grid must exceed 1/tau for the separation tau of theta.
    """
    _check_grid(G)
    theta = np.asarray(theta, dtype=float) % 1.0
    return _probe_ratio(
        _bourgain_multipliers(theta, _lambda_floats(lam_grid), G), f, G)


def _separated_theta(N: int, rng) -> np.ndarray:
    """N points on the torus with pairwise gaps >= 0.3/N (jittered lattice)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return (np.arange(N) + 0.35 + 0.3 * rng.random(N)) / N % 1.0


def _dyadic_lambdas(lo: float, hi: float) -> np.ndarray:
    n = max(1, math.ceil(math.log2(hi / lo) * _PER_OCTAVE))
    return lo * 2.0 ** ((np.arange(n) + 1.0) / _PER_OCTAVE)


def bourgain_growth_report(n_list, G: int, trials: int, seed: int,
                           theta_draws: int = 5) -> dict:
    """Growth of the multi-frequency maximal ratio against log^2 N.

    Per theta draw the lambda grid runs dyadically from 1/tau to 4G.
    """
    _check_grid(G)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    lam_max = 4.0 * G
    rows = []
    per_draw = max(1, trials // theta_draws)
    for N in sorted(int(n) for n in n_list):
        best = 0.0
        for _ in range(theta_draws):
            theta = _separated_theta(N, rng)
            tau = _theta_separation(theta)
            lams = _dyadic_lambdas(1.0 / tau, lam_max)
            mults = _bourgain_multipliers(theta, lams, G)
            sig = rng.standard_normal((per_draw, G)) \
                + 1j * rng.standard_normal((per_draw, G))
            # adversarial rows: spectrum piled on the theta modes, where
            # every multiplier in the grid is close to 1
            fhat = sfft.fft(sig, axis=1)
            aligned = np.zeros_like(fhat)
            cols = (np.round(theta * G).astype(int)) % G
            aligned[:, cols] = fhat[:, cols] + 1.0
            fhat_all = np.concatenate([fhat, aligned], axis=0)
            norms = np.concatenate([
                np.linalg.norm(sig, axis=1),
                np.linalg.norm(aligned, axis=1) / math.sqrt(G),
            ])
            ratios = _sup_ratio(mults, fhat_all) / np.where(norms == 0, 1, norms)
            best = max(best, float(ratios.max()))
        log2n = math.log2(N) if N >= 2 else 1.0
        rows.append({"N": N, "max_ratio": best,
                     "ratio_over_log2N": best / log2n ** 2})
    return {"G": G, "seed": seed, "trials": trials,
            "theta_draws": theta_draws, "per_octave": _PER_OCTAVE,
            "lam_max": lam_max, "rows": rows}


def oscillatory_max_probe(theta, tau: float, k0: int, G: int, lam_grid,
                          f: np.ndarray, k_max: int | None = None) -> float:
    """Oscillatory singular-integral probe: sup over lam <= tau^2.

    Multiplier at xi: sum_n [sum_{k0 <= k <= k_max} H_k(lam, xi - theta_n)]
    * phi_hat(tau (xi - theta_n)).  Frequencies are snapped to the grid;
    k_max defaults to log2(G) - 2 (the largest kernel fitting the grid).
    """
    _check_grid(G)
    k_max = k_max if k_max is not None else int(math.log2(G)) - 2
    theta = np.asarray(theta, dtype=float) % 1.0
    return _probe_ratio(
        _oscillatory_multipliers(theta, tau, k0, k_max,
                                 _lambda_floats(lam_grid), G), f, G)


def oscillatory_growth_report(n_list, G: int, k0: int, trials: int,
                              seed: int) -> dict:
    """Growth of the oscillatory maximal ratio with tau = 1/(4N).

    Multiplier tables are built once per N and shared across the trial
    batch.
    """
    _check_grid(G)
    k_max = int(math.log2(G)) - 2
    rng = np.random.default_rng(seed)
    rows = []
    for N in sorted(int(n) for n in n_list):
        theta = _separated_theta(N, rng)
        tau = 1.0 / (4.0 * N)
        lams = _dyadic_lambdas(tau * tau / 16.0, tau * tau)
        mults = _oscillatory_multipliers(theta, tau, k0, k_max, lams, G)
        sig = rng.standard_normal((trials, G)) \
            + 1j * rng.standard_normal((trials, G))
        ratios = _sup_ratio(mults, sfft.fft(sig, axis=1)) \
            / np.linalg.norm(sig, axis=1)
        best = float(ratios.max())
        log2n = math.log2(N) if N >= 2 else 1.0
        rows.append({"N": N, "tau": tau, "max_ratio": best,
                     "ratio_over_log2N": best / log2n ** 2})
    return {"G": G, "k0": k0, "k_max": k_max, "seed": seed,
            "trials": trials, "per_octave": _PER_OCTAVE, "rows": rows}


def single_l_max_probe(l: int, G: int, lam_grid, f: np.ndarray) -> float:
    """sup over lam of the single-scale chirp multiplier H_{k(lam,l)}(lam, .)."""
    _check_grid(G)
    return _probe_ratio(_single_l_multipliers(l, _lambda_floats(lam_grid), G),
                        f, G)


def single_l_report(l_list, G: int, trials: int, seed: int) -> dict:
    """Decay of the single-l maximal ratio in l.

    The unit-spaced grid represents frequencies up to 1/2, and the
    single-l multiplier concentrates near |xi| ~ 2**(l-k), so only
    kernel scales k >= l + 2 act on the grid; the lambda grid covers
    k in [max(k_lo, l+2), k_hi], k_lo = 4 and k_hi = log2(G) - 2, with
    8 points per octave of lam in [2^(l-2k), 2^(l-2k+1)).
    """
    _check_grid(G)
    k_hi = int(math.log2(G)) - 2
    rng = np.random.default_rng(seed)
    sig = rng.standard_normal((trials, G)) + 1j * rng.standard_normal((trials, G))
    fhat = sfft.fft(sig, axis=1)
    norms = np.linalg.norm(sig, axis=1)
    rows = []
    for l in sorted(int(x) for x in l_list):
        klo = max(_SINGLE_L_K_LO, l + 2)
        if klo > k_hi:
            raise ValueError(
                f"l = {l} needs kernel scale k >= {klo} > {k_hi}; "
                f"increase the grid size"
            )
        lams = []
        for k in range(klo, k_hi + 1):
            base = math.ldexp(1.0, l - 2 * k)
            lams.extend(base * 2.0 ** (i / _PER_OCTAVE)
                        for i in range(_PER_OCTAVE))
        lams = [x for x in lams if x <= 1.0]
        ratios = _sup_ratio(_single_l_multipliers(l, lams, G), fhat) / norms
        rows.append({"l": l, "n_lambda": len(lams),
                     "max_ratio": float(ratios.max())})
    return {"G": G, "seed": seed, "trials": trials, "k_lo": _SINGLE_L_K_LO,
            "k_hi": k_hi, "per_octave": _PER_OCTAVE, "rows": rows,
            "slope_log2_ratio_vs_l": _log2_slope(
                (r["l"], r["max_ratio"]) for r in rows)}


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def signal_to_json(sig: Signal) -> str:
    return json.dumps({
        "origin": sig.origin,
        "samples": [[float(z.real), float(z.imag)] for z in sig.samples],
    })


def signal_from_json(text: str) -> Signal:
    obj = json.loads(text)
    samples = np.array([complex(re, im) for re, im in obj["samples"]])
    return Signal(samples=samples, origin=int(obj["origin"]))
