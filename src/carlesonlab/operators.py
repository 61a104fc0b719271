"""The truncated quadratic Carleson operator and torus-grid maximal probes.

``apply_kernel`` convolves a finitely supported signal with the taps
e(lam m^2)/m for 1 <= |m| <= R by cyclic FFT of length >= L + 2R (so the
linear convolution is exact), with the same exact phase reduction used
by the Weyl sums.  ``carleson_max`` takes the pointwise supremum of the
moduli over a finite modulation set.

The growth reports discretize maximal multiplier operators on a
periodic grid of size G: position indices 0..G-1, frequencies g/G in
FFT layout.  They produce empirical *lower* bounds for operator norms
(max over trial families); the periodic grid stands in for the line and
is recorded in every report.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bumps import phi_hat
from .multiplier import _frac_lam_msq, _log2_slope
from .oscillatory import _blocks, _expi, _h_row_step, _h_rows, h_row
from .arithmetic import torus_delta

__all__ = [
    "Signal",
    "kernel_taps",
    "apply_kernel",
    "apply_kernel_brute",
    "carleson_max",
    "norm_probe",
    "bourgain_growth_report",
    "oscillatory_growth_report",
    "single_l_report",
    "signal_to_json",
]

SIZE_CAP = 2 ** 24
_PER_OCTAVE = 8               # growth-report lambda grid points per octave
_THETA_DRAWS = 5              # Bourgain growth report: theta sets drawn per N
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


def _chirp(lam: float, m: np.ndarray) -> np.ndarray:
    """e(lam m^2) at the int64 m, by the Weyl sums' exact phase reduction."""
    return _expi(2 * np.pi * _frac_lam_msq(float(lam) % 1.0, m))


def kernel_taps(lam: float, R: int) -> np.ndarray:
    """Taps e(lam m^2)/m for m in [-R, R]; index m + R; zero at m = 0."""
    if R < 1:
        raise ValueError(f"radius must be >= 1, got {R}")
    m = np.arange(1, R + 1, dtype=np.int64)
    ph = _chirp(lam, m)
    taps = np.zeros(2 * R + 1, dtype=complex)
    taps[R + 1:] = ph / m
    taps[R - 1::-1] = -ph / m
    return taps


@cache
def _fast_lengths() -> list[int]:
    """Every 2^a 3^b 5^c 7^d 11^e <= SIZE_CAP, ascending: the lengths whose
    FFT factors into pocketfft's fast radices."""
    lengths = [1]
    for p in (2, 3, 5, 7, 11):
        for x in list(lengths):
            while (x := x * p) <= SIZE_CAP:
                lengths.append(x)
    return sorted(lengths)


def _next_fast_len(n: int) -> int:
    """The smallest 11-smooth length >= n, for 1 <= n <= SIZE_CAP
    (scipy.fft.next_fast_len(n) for complex input)."""
    lengths = _fast_lengths()
    return lengths[bisect_left(lengths, n)]


def _conv_size(L: int, R: int) -> tuple[int, int]:
    """(out_len, n): the linear-convolution length L + 2R and the cyclic FFT
    length that holds it; raises past SIZE_CAP."""
    out_len = L + 2 * R
    if out_len > SIZE_CAP:
        raise ValueError(f"output length {out_len} exceeds cap {SIZE_CAP}")
    return out_len, _next_fast_len(out_len)


def apply_kernel(f: Signal, lam: float, R: int) -> Signal:
    """Exact linear convolution with the truncated kernel via cyclic FFT."""
    out_len, n = _conv_size(len(f.samples), R)
    fh = np.fft.fft(f.samples, n)
    kh = np.fft.fft(kernel_taps(lam, R), n)
    conv = np.fft.ifft(fh * kh)[:out_len]
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
    first out_len points.

    The sup starts at +0 and max(x, x) = x, so a multiplier byte-equal to
    the last one transformed is skipped, and so is an all-zero one when
    every fhat is finite (0 * inf would be NaN); the result is
    bit-identical to transforming every multiplier.  With two or more
    rows or one array of them, the multipliers go in _blocks of rows * n
    products (one row of lazily built ones, one at a time: faster): a
    batched inverse FFT is bit-equal to one per multiplier, and a max
    over non-negative values (or NaN) does not depend on its order.
    """
    rows, n = fhat_rows.shape
    sup = np.zeros((rows, out_len))
    skip_zero = bool(np.isfinite(fhat_rows).all())

    def kept():
        prev = None
        for mult in mults:
            if skip_zero and not mult.any():
                continue
            raw = mult.tobytes()
            if raw != prev:
                prev = raw
                yield mult

    batch = rows > 1 or isinstance(mults, np.ndarray)
    blocks = _blocks(kept(), rows * n) if batch else ([m] for m in kept())
    for block in blocks:
        _fold_sup(sup, block, fhat_rows, out_len)
    return sup


def _fold_sup(sup: np.ndarray, mults: list, fhat_rows: np.ndarray,
              out_len: int) -> None:
    """sup = max(sup, |F^-1(mult * fhat)|) over ``mults``, in place."""
    # the inverse is written over the product (out=): into a fresh array,
    # numpy.fft ran slower
    prod = fhat_rows[None, :, :] * np.stack(mults)[:, None, :]
    vals = np.abs(np.fft.ifft(prod, axis=-1, out=prod)[:, :, :out_len])
    for mult_vals in vals:
        np.maximum(sup, mult_vals, out=sup)


def carleson_max(f: Signal, lam_values, R: int) -> Signal:
    """Pointwise sup over the modulation set of |truncated convolution|.

    Accepts a LambdaSet (its float images are used; duplicates collapse)
    or any iterable of floats.  The result is real-valued on the full
    output window of length L + 2R.
    """
    lams = _lambda_floats(lam_values)
    out_len, n = _conv_size(len(f.samples), R)
    best = _pointwise_sup(
        (np.fft.fft(kernel_taps(float(lam), R), n) for lam in lams),
        np.fft.fft(f.samples, n)[None, :], out_len)[0]
    return Signal(samples=best.astype(complex), origin=f.origin - R)


def _gaussian(rng, shape) -> np.ndarray:
    """Complex Gaussian samples: the real parts are drawn first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _trial_signals(L: int, lams: np.ndarray, trials: int, rng) -> list:
    """Deterministic trial family: impulse, per-lambda chirps, Gaussians."""
    out = []
    imp = np.zeros(L, dtype=complex)
    imp[0] = 1.0
    out.append(("impulse", imp))
    n = np.arange(L, dtype=np.int64)
    for lam in lams:
        out.append(("chirp", _chirp(lam, n)))
    while len(out) < trials:
        out.append(("gaussian", _gaussian(rng, L)))
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
    _check_trials(trials)
    lengths = [int(x) for x in lengths]
    if not lengths or any(x < 1 for x in lengths):
        raise ValueError("lengths must be positive")
    lams = _lambda_floats(lam_values)
    radii = [radius_factor * L for L in lengths]
    sizes = [_conv_size(L, R) for L, R in zip(lengths, radii)]
    rng = np.random.default_rng(seed)
    rows = []
    for L, R, (out_len, n) in zip(lengths, radii, sizes):
        kernel_hats = [np.fft.fft(kernel_taps(float(lam), R), n)
                       for lam in lams]
        # the ratios are read in trial order, so the first maximum keeps
        # its family
        best = 0.0
        best_family = None
        for chunk in _blocks(_trial_signals(L, lams, trials, rng), n):
            fhat = np.fft.fft(np.stack([sig for _, sig in chunk]), n, axis=1)
            sups = _pointwise_sup(kernel_hats, fhat, out_len)
            for (family, sig), sup in zip(chunk, sups):
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


def _check_trials(trials: int):
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _theta_separation(theta) -> float:
    th = np.sort(np.asarray(theta, dtype=float) % 1.0)
    if len(th) == 1:
        return 1.0
    gaps = np.diff(np.append(th, th[0] + 1.0))
    return float(gaps.min())


def _sup_ratio(multipliers, fhat_rows) -> np.ndarray:
    """||sup_lam |F^-1(mult * fhat)|||_2 per trial row."""
    return np.linalg.norm(
        _pointwise_sup(multipliers, fhat_rows, fhat_rows.shape[1]), axis=1)


def _bourgain_multipliers(theta: np.ndarray, lams, G: int) -> np.ndarray:
    """Row i: sum_n phi_hat(lams[i] * d(xi - theta_n)) at the grid
    frequencies.

    The signed torus distances d do not depend on lam, so they are taken
    once for all lam; the tables are built in _blocks of lam * d, each
    summed over n in order as a single table is.
    """
    d = torus_delta(np.fft.fftfreq(G)[None, :] - theta[:, None])
    return np.concatenate([
        np.sum(phi_hat(np.array(block, dtype=float)[:, None, None] * d),
               axis=1)
        for block in _blocks(lams, d.size)])


def _oscillatory_multipliers(theta: np.ndarray, tau: float, k0: int,
                             k_max: int, lams, G: int) -> np.ndarray:
    """Row i: sum_n [sum_{k0 <= k <= k_max} H_k(lams[i], .)] * phi_hat(tau .)
    translated to the grid frequency nearest theta_n.

    Every scale's rows come from one _h_rows call; the sums run in the
    per-lam order (k, then n).
    """
    window = phi_hat(tau * np.fft.fftfreq(G))
    shifts = [int(round(th * G)) % G for th in theta]
    base = np.zeros((len(lams), G), dtype=complex)
    for k in range(k0, k_max + 1):
        base += _h_rows(k, lams, G)
    base *= window
    mults = np.zeros_like(base)
    for sh in shifts:
        mults += np.roll(base, sh, axis=1)
    return mults


def _separated_theta(N: int, rng) -> np.ndarray:
    """N points on the torus with pairwise gaps >= 0.3/N (jittered lattice)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return (np.arange(N) + 0.35 + 0.3 * rng.random(N)) / N % 1.0


def _dyadic_lambdas(lo: float, hi: float) -> np.ndarray:
    n = max(1, math.ceil(math.log2(hi / lo) * _PER_OCTAVE))
    return lo * 2.0 ** ((np.arange(n) + 1.0) / _PER_OCTAVE)


def _oscillatory_lambdas(N: int) -> tuple[float, np.ndarray]:
    """tau = 1/(4N) and the lambda grid of the oscillatory report at N."""
    tau = 1.0 / (4.0 * N)
    return tau, _dyadic_lambdas(tau * tau / 16.0, tau * tau)


def _single_l_scales(l: int, k_hi: int) -> list:
    """The (k, lam) of the single-l report at l: k from max(k_lo, l + 2)
    to k_hi, each lam with 1 <= lam 2^(2k-l) < 2 at its own k."""
    return [(k, math.ldexp(1.0, l - 2 * k) * 2.0 ** (i / _PER_OCTAVE))
            for k in range(max(_SINGLE_L_K_LO, l + 2), k_hi + 1)
            for i in range(_PER_OCTAVE)]


def _growth_row(N: int, best: float, **extra) -> dict:
    """A growth-report row: ``best`` and ``best / log2(N)^2``, with log2(N)
    read as 1 below N = 2."""
    log2n = math.log2(N) if N >= 2 else 1.0
    return {"N": N, **extra, "max_ratio": best,
            "ratio_over_log2N": best / log2n ** 2}


def bourgain_growth_report(n_list, G: int, trials: int, seed: int) -> dict:
    """Growth of the multi-frequency maximal ratio against log^2 N.

    Per theta draw the lambda grid runs dyadically from 1/tau to 4G.
    """
    _check_grid(G)
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    lam_max = 4.0 * G
    rows = []
    per_draw = max(1, trials // _THETA_DRAWS)
    for N in sorted(int(n) for n in n_list):
        best = 0.0
        for _ in range(_THETA_DRAWS):
            theta = _separated_theta(N, rng)
            tau = _theta_separation(theta)
            lams = _dyadic_lambdas(1.0 / tau, lam_max)
            mults = _bourgain_multipliers(theta, lams, G)
            sig = _gaussian(rng, (per_draw, G))
            # adversarial rows: spectrum piled on the theta modes, where
            # every multiplier in the grid is close to 1; off those modes
            # they vanish, so they meet only the multipliers' values there
            fhat = np.fft.fft(sig, axis=1)
            cols = (np.round(theta * G).astype(int)) % G
            aligned, at_cols = np.zeros_like(fhat), np.zeros_like(mults)
            aligned[:, cols] = fhat[:, cols] + 1.0
            at_cols[:, cols] = mults[:, cols]
            sups = np.concatenate([_sup_ratio(mults, fhat),
                                   _sup_ratio(at_cols, aligned)])
            norms = np.concatenate([
                np.linalg.norm(sig, axis=1),
                np.linalg.norm(aligned, axis=1) / math.sqrt(G),
            ])
            ratios = sups / np.where(norms == 0, 1, norms)
            best = max(best, float(ratios.max()))
        rows.append(_growth_row(N, best))
    return {"G": G, "seed": seed, "trials": trials,
            "theta_draws": _THETA_DRAWS, "per_octave": _PER_OCTAVE,
            "lam_max": lam_max, "rows": rows}


def oscillatory_growth_report(n_list, G: int, k0: int, trials: int,
                              seed: int) -> dict:
    """Growth of the oscillatory maximal ratio with tau = 1/(4N).

    Multiplier tables are built once per N and shared across the trial
    batch; the kernel scales run from k0 to k_max = log2(G) - 2.
    """
    _check_grid(G)
    _check_trials(trials)
    k_max = int(math.log2(G)) - 2
    if not 2 <= k0 <= k_max:
        raise ValueError(f"k0 must lie in [2, {k_max}] on grid G = {G}, "
                         f"got {k0}")
    rng = np.random.default_rng(seed)
    rows = []
    for N in sorted(int(n) for n in n_list):
        theta = _separated_theta(N, rng)
        tau, lams = _oscillatory_lambdas(N)
        mults = _oscillatory_multipliers(theta, tau, k0, k_max, lams, G)
        sig = _gaussian(rng, (trials, G))
        ratios = _sup_ratio(mults, np.fft.fft(sig, axis=1)) \
            / np.linalg.norm(sig, axis=1)
        rows.append(_growth_row(N, float(ratios.max()), tau=tau))
    return {"G": G, "k0": k0, "k_max": k_max, "seed": seed,
            "trials": trials, "per_octave": _PER_OCTAVE, "rows": rows}


def single_l_report(l_list, G: int, trials: int, seed: int) -> dict:
    """Decay of the single-l maximal ratio in l.

    The unit-spaced grid represents frequencies up to 1/2, and the
    single-l multiplier concentrates near |xi| ~ 2**(l-k), so only
    kernel scales k >= l + 2 act on the grid; the lambda grid covers
    k in [max(k_lo, l+2), k_hi], k_lo = 4 and k_hi = log2(G) - 2, with
    8 points per octave of lam in [2^(l-2k), 2^(l-2k+1)).
    """
    _check_grid(G)
    _check_trials(trials)
    k_hi = int(math.log2(G)) - 2
    rng = np.random.default_rng(seed)
    sig = _gaussian(rng, (trials, G))
    fhat = np.fft.fft(sig, axis=1)
    norms = np.linalg.norm(sig, axis=1)
    rows = []
    for l in sorted(int(x) for x in l_list):
        scales = _single_l_scales(l, k_hi)
        if not scales:
            raise ValueError(
                f"l = {l} needs kernel scale k >= "
                f"{max(_SINGLE_L_K_LO, l + 2)} > {k_hi}; "
                f"increase the grid size"
            )
        mults = (h_row(k, lam, G) for k, lam in scales)
        ratios = _sup_ratio(mults, fhat) / norms
        rows.append({"l": l, "n_lambda": len(scales),
                     "max_ratio": float(ratios.max())})
    return {"G": G, "seed": seed, "trials": trials, "k_lo": _SINGLE_L_K_LO,
            "k_hi": k_hi, "per_octave": _PER_OCTAVE, "rows": rows,
            "slope_log2_ratio_vs_l": _log2_slope(
                (r["l"], r["max_ratio"]) for r in rows)}


# ---------------------------------------------------------------------------
# sizes: an upper bound on the entries of a torus report's largest array,
# from its arguments alone and before it allocates anything; a batch of
# _blocks holds at most max(_BLOCK_POINTS, one row) of them.  Arguments a
# report refuses before it allocates (N < 1, an l with no kernel scale, a
# grid or k0 out of range) add nothing.
# ---------------------------------------------------------------------------

def _bourgain_size(n_list, G: int, trials: int) -> int:
    """The (rows, G) arrays of a draw: at most ``trials`` signal rows, N
    theta distances, and the lambda grid from 1/tau >= 1 to 4G."""
    lams = len(_dyadic_lambdas(1.0, 4.0 * G))
    return G * max(trials, lams, *n_list)


def _oscillatory_size(n_list, G: int, k0: int, trials: int) -> int:
    """The N theta points, the (rows, G) signal and multiplier arrays, and
    the h_row transforms, whose step shrinks as lambda grows."""
    ks = range(k0, int(math.log2(G)) - 1)
    lam_rows = [_oscillatory_lambdas(N)[1] for N in n_list if N >= 1]
    fft = [G << _h_row_step(k, lams[-1]) for lams in lam_rows for k in ks]
    return max([G * trials, *n_list,
                *(G * len(lams) for lams in lam_rows), *fft])


def _single_l_size(l_list, G: int, trials: int) -> int:
    """The (trials, G) signal arrays and every h_row transform."""
    fft = [G << _h_row_step(k, lam) for l in l_list
           for k, lam in _single_l_scales(l, int(math.log2(G)) - 2)]
    return max([G * trials, *fft])


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def signal_to_json(sig: Signal) -> str:
    return json.dumps({
        "origin": sig.origin,
        "samples": [[float(z.real), float(z.imag)] for z in sig.samples],
    })

