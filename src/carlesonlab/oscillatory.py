"""Oscillatory integrals with quadratic phase against the dyadic bumps.

The central object is

    H_j(x, y) = integral of e(x t^2 - y t) psi_j(t) dt,

evaluated after rescaling t = 2**j u as integral of e(X u^2 - Y u) psi(u)
du with X = x 4**j, Y = y 2**j.  Three evaluation paths cover all
oscillation regimes:

* X == 0: the integral is the Fourier transform of psi at Y, read off a
  precomputed dense table (spectrally accurate FFT of psi).
* moderate X, Y: panel Gauss-Legendre with at least four panels per
  oscillation, doubled until two refinements agree within tolerance.
* large X: the Fresnel-dual form -- the chirp's Fourier transform is an
  explicit Gaussian-type phase, so H is a *non-oscillatory* integral of
  psi-hat against a slowly varying phase.  No asymptotic expansion is
  involved; the identity is exact and the quadrature error is controlled
  the same way as in the direct path.

The two nontrivial paths overlap in a wide regime and are cross-checked
in the test suite.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from itertools import islice
from pathlib import Path

import numpy as np

from ._memo import BoundedCache
from .bumps import psi, psi_k

__all__ = [
    "ConvergenceError",
    "h_j",
    "h_scaled",
    "h_row",
    "psi_hat",
]

TOL_MIN = 1e-14
TOL_MAX = 1e-6
_DIRECT_BUDGET = 2 ** 14      # panel count below which direct quadrature is used
_DUAL_MIN_X = 2 ** 12         # chirp strength above which the dual form is cheap
_HARD_PANEL_CAP = 2 ** 21
_GL_ORDER = 10                # Gauss-Legendre nodes per panel
_PSI_DT_LOG2 = -13            # psi-hat table: psi sampled at step 2**-13,
_PSI_PAD_LOG2 = 21            # zero-padded to an FFT of length 2**21
_PSI_HAT_FLOOR = 5e-16        # psi-hat's effective support ends below it
_H_ROW_OVERSAMPLE = 8         # h_row's chirp samples per bandwidth unit
# entries of one batched array (2 MB of complex values): _h_rows' FFT
# blocks and operators' multiplier, table and trial blocks, cut by _blocks
_BLOCK_POINTS = 2 ** 17
# panel rules of both quadrature paths, keyed by the exact panel count
# (rounding counts up would change the quadrature's bits); 1.5 MB holds
# the dual pair (p, 2p) of the last dual value at the decay harness's
# scales (1.29 MB at p = 1406), and a larger rule is not kept
_PANEL_RULES = BoundedCache(max_bytes=3 * 2 ** 19, max_entries=64)


# ---------------------------------------------------------------------------
# psi-hat table
# ---------------------------------------------------------------------------

class _PsiHatTable:
    """Dense uniform table of psi-hat with 8-point Lagrange interpolation.

    Entry k is psi-hat(k du) / 1j, from the zero-padded FFT (of length
    2**_PSI_PAD_LOG2, times dt) of psi sampled at step dt = 2**_PSI_DT_LOG2
    over [-1, 1), so du = 1 / (dt 2**_PSI_PAD_LOG2).  psi is smooth and
    supported in |t| <= 1, so psi-hat is entire of exponential type 2*pi
    and that FFT aliases only by |psi-hat(1/dt - u)|, which is far below
    1e-15 here.  psi-hat is odd and purely imaginary, and read as 0 from
    u_cut on, past the last entry above _PSI_HAT_FLOOR; the table ships as
    package data holding the entries below u_cut and the 8 of the
    interpolation stencil past it.  tests/test_fft_backend.py holds the
    file to that FFT bit for bit, and regenerates it.
    """

    def __init__(self):
        self.du = 2.0 ** -(_PSI_DT_LOG2 + _PSI_PAD_LOG2)
        self.imag = np.load(Path(__file__).with_name("_psi_hat.npy"),
                            allow_pickle=False)
        # effective support: beyond u_cut the transform is below the floor
        above = np.nonzero(np.abs(self.imag) > _PSI_HAT_FLOOR)[0]
        self.u_cut = (above[-1] + 1) * self.du if len(above) else 0.0

    def __call__(self, u):
        """Interpolated psi-hat(u) (complex, odd, purely imaginary)."""
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        sign = np.sign(u)
        a = np.abs(u)
        out = np.zeros(a.shape, dtype=float)
        inside = a < self.u_cut
        if np.any(inside):
            out[inside] = self._interp(a[inside])
        res = 1j * sign * out
        return res[0] if scalar else res

    def _interp(self, a):
        # centered 8-point Lagrange on the uniform grid
        pos = a / self.du
        base = np.floor(pos).astype(np.int64) - 3
        base = np.clip(base, 0, len(self.imag) - 8)
        frac = pos - base
        acc = np.zeros_like(a)
        for i in range(8):
            w = np.ones_like(a)
            for m in range(8):
                if m != i:
                    w *= (frac - m) / (i - m)
            acc += w * self.imag[base + i]
        return acc


@cache
def _psi_hat_table() -> _PsiHatTable:
    return _PsiHatTable()


def psi_hat(u):
    """Fourier transform of psi (purely imaginary, odd), from the table."""
    return _psi_hat_table()(u)


def _expi(theta):
    """cos(theta) + i sin(theta), as one complex array.

    np.exp(2j * np.pi * x) forms its argument with a real part of +-0 and
    an imaginary part made by the same products as 2 * np.pi * x, and the
    complex exponential of (+-0, theta) is (cos theta, sin theta), so
    _expi(2 * np.pi * x) equals it when numpy's real cos and sin round as
    the complex exp does.  That is measured, not guaranteed: it holds bit
    for bit with numpy 2.4 on x86-64 Linux (AVX-512 dispatch), and
    TestExpi pins it; another platform or SIMD dispatch may differ in the
    last bit.  The two real kernels are cheaper than the complex one.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _blocks(items, points_each: int):
    """Consecutive lists of max(1, _BLOCK_POINTS // points_each) items: the
    batches of one array of at most _BLOCK_POINTS entries, or of one item
    that alone is larger."""
    it = iter(items)
    size = max(1, _BLOCK_POINTS // points_each)
    while block := list(islice(it, size)):
        yield block


@lru_cache(maxsize=1)
def _gl_nodes():
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _panel_nodes(lo: float, hi: float, panels: int):
    x, w = _gl_nodes()
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def _direct_rule(panels: int):
    """Read-only (v, weights, psi(v)) of the direct path's panel rule."""
    def build():
        v, w = _panel_nodes(0.25, 1.0, panels)
        return v, w, psi(v)
    return _PANEL_RULES.get(("direct", panels), build)


def _dual_rule(panels: int):
    """Read-only (u, weights, psi_hat(u)) of the dual path's panel rule."""
    def build():
        tab = _psi_hat_table()
        u, wq = _panel_nodes(0.0, tab.u_cut, panels)
        return u, wq, tab(u)
    return _PANEL_RULES.get(("dual", panels), build)


def _direct_scaled(X: float, Y: float, panels: int) -> complex:
    # folded over the odd symmetry of psi:
    #   integral = int_{1/4}^{1} e(X v^2) * (-2i sin(2 pi Y v)) psi(v) dv
    v, w, pv = _direct_rule(panels)
    vals = _expi(2 * np.pi * X * v * v) * (-2j * np.sin(2 * np.pi * Y * v)) * pv
    return complex(np.sum(vals * w))


def _dual_scaled(X: float, Y: float, panels: int) -> complex:
    # H(X, Y) = e^{i pi/4}/sqrt(2X) * int e(-(Y-w)^2/(4X)) psi_hat(w) dw,
    # folded over the odd symmetry of psi_hat.
    u, wq, ph = _dual_rule(panels)
    q = 0.25 / X
    vals = (_expi(-2 * np.pi * q * (Y - u) ** 2)
            - _expi(-2 * np.pi * q * (Y + u) ** 2)) * ph
    pref = np.exp(0.25j * np.pi) / math.sqrt(2.0 * X)
    return complex(pref * np.sum(vals * wq))


class ConvergenceError(ValueError):
    """A quadrature refinement did not reach its tolerance within the cap."""


def _refine(fn, p0: int, tol: float) -> complex:
    prev = fn(p0)
    p = 2 * p0
    while p <= _HARD_PANEL_CAP:
        cur = fn(p)
        if abs(cur - prev) <= 0.5 * tol:
            return cur
        prev = cur
        p *= 2
    raise ConvergenceError(
        f"quadrature did not reach tol={tol} within {_HARD_PANEL_CAP} panels"
    )


def _osc_scaled(X: float, Y: float, tol: float) -> complex:
    """integral of e(X u^2 - Y u) psi(u) du over 1/4 <= |u| <= 1."""
    if X == 0.0:
        return complex(psi_hat(Y))
    if X < 0.0:
        return complex(np.conj(_osc_scaled(-X, -Y, tol)))
    budget = 4.0 * (X + abs(Y))
    if budget <= _DIRECT_BUDGET or X < _DUAL_MIN_X:
        p0 = max(16, math.ceil(budget))
        if p0 > _HARD_PANEL_CAP:
            raise ValueError(
                f"oscillation budget exceeded: X={X:g}, Y={Y:g} needs "
                f"~{p0} panels and is outside the dual regime"
            )
        return _refine(lambda p: _direct_scaled(X, Y, p), p0, tol)
    tab = _psi_hat_table()
    rate = (abs(Y) + tab.u_cut) / (2.0 * X)      # oscillations per unit w
    p0 = max(64, math.ceil(tab.u_cut * (4.0 * rate + 4.0)))
    return _refine(lambda p: _dual_scaled(X, Y, p), p0, tol)


def h_j(j: int, x: float, y: float, tol: float = 1e-10) -> complex:
    """The scale-j oscillatory integral, to absolute accuracy ``tol``."""
    if j < 0:
        raise ValueError(f"scale j must be >= 0, got {j}")
    return h_scaled(x * 4.0 ** j, y * 2.0 ** j, tol)


def h_scaled(X: float, Y: float, tol: float = 1e-10) -> complex:
    """Scale-free form: integral of e(X u^2 - Y u) psi(u) du.

    Valid for any integer scale k via X = lam*4**k, Y = y*2**k, including
    negative k where h_j's nonnegativity check does not apply.
    """
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    return _osc_scaled(X, Y, tol)


def h_row(k: int, lam: float, G: int) -> np.ndarray:
    """H_k(lam, xi) for all grid frequencies xi_g, FFT layout.

    ``xi_g = g/G`` for ``g < G/2`` and ``(g-G)/G`` for ``g >= G/2``; the
    result aligns index-by-index with ``numpy.fft.fft`` of a length-G
    signal.  The integral is evaluated by trapezoid summation of the
    chirp at ``_H_ROW_OVERSAMPLE`` times its bandwidth; the integrand is
    smooth and compactly supported, so the only error is spectral aliasing.

    Requires ``2**(k+1) <= G`` so the kernel support fits one period.
    """
    return _h_rows(k, [lam], G)[0]


def _h_row_step(k: int, lam: float) -> int:
    """The p of h_row's sampling step 2^-p at scale k and chirp lam: its
    FFT has G * 2^p points."""
    bandwidth = 2.0 * lam * 2.0 ** k + 0.5
    p = max(0, math.ceil(math.log2(_H_ROW_OVERSAMPLE * bandwidth)))
    # at least 32 samples across the support of psi_k
    return max(p, 5 - (k - 2))


def _h_rows(k: int, lams, G: int) -> np.ndarray:
    """h_row(k, lam, G) for every lam in ``lams``, one row each.

    Each lam keeps h_row's own sampling step 2^-p; the lams that share a
    step share its t grid and psi_k samples, and their chirps are
    transformed in _blocks of FFT points (a batched FFT is bit-equal to
    one FFT per row).
    """
    if G & (G - 1):
        raise ValueError(f"grid size G must be a power of two, got {G}")
    if k < 0 or 2 ** (k + 1) > G:
        raise ValueError(f"kernel scale 2^{k} does not fit grid G={G}")
    lams = [float(lam) for lam in lams]
    by_step = {}
    for i, lam in enumerate(lams):
        by_step.setdefault(_h_row_step(k, lam), []).append(i)
    out = np.empty((len(lams), G), dtype=complex)
    half_g = G // 2
    for p, rows in by_step.items():
        h = 2.0 ** (-p)
        nfft = G * 2 ** p
        half = int(round(2 ** k / h))
        # samples at t = n*h, n = -half..half.  t^2 is even and psi_k odd
        # bit for bit, so both are evaluated at n >= 0 only; the sample at
        # -n is the same product with psi_k negated, which keeps every
        # zero's sign
        t = np.arange(half + 1, dtype=np.int64) * h
        psi_t = psi_k(k, t)
        neg_psi = -psi_t[:0:-1]
        # one work array per step, sized by the first (largest) block: the
        # transform overwrites it, so each block zeroes the gap between
        # its two sample runs again
        work = None
        for idx in _blocks(rows, nfft):
            lam_col = np.array([lams[i] for i in idx])[:, None]
            chirp = _expi(2 * np.pi * (lam_col * t * t))
            if work is None:
                work = np.empty((len(idx), nfft), dtype=complex)
            buf = work[:len(idx)]
            buf[:, half + 1:nfft - half] = 0
            buf[:, nfft - half:] = (chirp[:, :0:-1] * neg_psi) * h
            # written last: at 2^(k+1) = G, n = half shares its index with
            # n = -half (both samples are +-0, as psi_k vanishes at 2^k)
            buf[:, :half + 1] = chirp * psi_t * h
            # in place: into a fresh array, numpy.fft ran slower at these
            # lengths
            np.fft.fft(buf, axis=1, out=buf)
            out[idx, :half_g] = buf[:, :half_g]
            out[idx, half_g:] = buf[:, nfft - G + half_g:]
    return out
