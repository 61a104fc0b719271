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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from ._memo import BoundedCache
from .bumps import psi, phi_hat

__all__ = [
    "ScaleIndex",
    "osc_norm",
    "h_j",
    "h_scaled",
    "h_row",
    "mu",
    "phi_kl_hat",
    "envelope_check",
    "psi_hat",
]

TOL_MIN = 1e-14
TOL_MAX = 1e-6
_DIRECT_BUDGET = 2 ** 14      # panel count below which direct quadrature is used
_DUAL_MIN_X = 2 ** 12         # chirp strength above which the dual form is cheap
_HARD_PANEL_CAP = 2 ** 21
# panel rules of both quadrature paths, keyed by the exact panel count
# (rounding counts up would change the quadrature's bits); a rule over the
# bound, above ~52k dual panels, is computed and not kept
_PANEL_RULES = BoundedCache(max_bytes=16 * 2 ** 20, max_entries=64)


def osc_norm(j: int, x: float, y: float) -> float:
    """Scale-j anisotropic size 2**(2j)|x| + 2**j |y|."""
    return (4.0 ** j) * abs(x) + (2.0 ** j) * abs(y)


@dataclass(frozen=True)
class ScaleIndex:
    """Scale bookkeeping for the single-l operators.

    ``k`` is the unique integer with 1 <= lam * 2**(2k - l) < 2, and
    ``k_l`` is k for l <= 0 and k - l for l > 0.
    """

    l: int
    lam: float
    k: int

    def __post_init__(self):
        if not 0.0 < self.lam:
            raise ValueError(f"lam must be positive, got {self.lam}")
        t = math.ldexp(self.lam, 2 * self.k - self.l)
        if not 1.0 <= t < 2.0:
            raise ValueError(
                f"k={self.k} does not bracket lam={self.lam}, l={self.l}: "
                f"lam*2^(2k-l)={t}"
            )

    @classmethod
    def from_lambda(cls, l: int, lam: float) -> "ScaleIndex":
        """The unique k with 1 <= lam 2^(2k-l) < 2, when one exists.

        Consecutive k move the product by a factor 4 across a width-one
        bracket, so for fixed l only alternating octaves of lam admit a
        scale; elsewhere the single-l operator is empty and this raises.
        """
        if not 0.0 < lam:
            raise ValueError(f"lam must be positive, got {lam}")
        k = math.ceil((l - math.log2(lam)) / 2.0)
        for cand in (k - 1, k, k + 1):
            v = math.ldexp(lam, 2 * cand - l)
            if 1.0 <= v < 2.0:
                return cls(l=l, lam=lam, k=cand)
        raise ValueError(
            f"no integer scale brackets lam={lam:g} at l={l}; the "
            "single-l kernel vanishes on this octave"
        )

    @property
    def k_l(self) -> int:
        return self.k if self.l <= 0 else self.k - self.l


# ---------------------------------------------------------------------------
# psi-hat table
# ---------------------------------------------------------------------------

class _PsiHatTable:
    """Dense uniform table of psi-hat with 8-point Lagrange interpolation.

    psi is smooth and supported in |t| <= 1, so psi-hat is entire of
    exponential type 2*pi and a zero-padded FFT of samples at step dt
    aliases only by |psi-hat(1/dt - u)|, which is far below 1e-15 here.
    psi-hat is odd and purely imaginary; the table stores u >= 0.
    """

    def __init__(self, dt_log2: int = -13, pad_log2: int = 21):
        dt = 2.0 ** dt_log2
        n = int(round(2.0 / dt))          # samples covering [-1, 1)
        nfft = 2 ** pad_log2
        t = (np.arange(n) - n // 2) * dt
        vals = psi(t)
        buf = np.zeros(nfft, dtype=complex)
        idx = (np.arange(n) - n // 2) % nfft
        buf[idx] = vals
        spec = sfft.fft(buf) * dt
        self.du = 1.0 / (nfft * dt)
        nkeep = nfft // 2
        self.imag = spec.imag[:nkeep].copy()   # psi-hat = 1j * imag, odd
        self.u_max = (nkeep - 1) * self.du
        # effective support: beyond u_cut the transform is below 5e-16
        mags = np.abs(self.imag)
        above = np.nonzero(mags > 5e-16)[0]
        self.u_cut = (above[-1] + 1) * self.du if len(above) else 0.0
        self.abs_integral = float(np.sum(mags) * self.du)

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


_table: _PsiHatTable | None = None


def _psi_hat_table() -> _PsiHatTable:
    global _table
    if _table is None:
        _table = _PsiHatTable()
    return _table


def psi_hat(u):
    """Fourier transform of psi (purely imaginary, odd), from the table."""
    return _psi_hat_table()(u)


@lru_cache(maxsize=1)
def _gl_nodes(order: int = 10):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


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
    vals = np.exp(2j * np.pi * X * v * v) * (-2j * np.sin(2 * np.pi * Y * v)) * pv
    return complex(np.sum(vals * w))


def _dual_scaled(X: float, Y: float, panels: int) -> complex:
    # H(X, Y) = e^{i pi/4}/sqrt(2X) * int e(-(Y-w)^2/(4X)) psi_hat(w) dw,
    # folded over the odd symmetry of psi_hat.
    u, wq, ph = _dual_rule(panels)
    q = 0.25 / X
    vals = (np.exp(-2j * np.pi * q * (Y - u) ** 2)
            - np.exp(-2j * np.pi * q * (Y + u) ** 2)) * ph
    pref = np.exp(0.25j * np.pi) / math.sqrt(2.0 * X)
    return complex(pref * np.sum(vals * wq))


def _refine(fn, p0: int, tol: float, cap: int) -> complex:
    prev = fn(p0)
    p = 2 * p0
    while p <= cap:
        cur = fn(p)
        if abs(cur - prev) <= 0.5 * tol:
            return cur
        prev = cur
        p *= 2
    raise ValueError(
        f"quadrature did not reach tol={tol} within {cap} panels"
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
        return _refine(lambda p: _direct_scaled(X, Y, p), p0, tol, _HARD_PANEL_CAP)
    tab = _psi_hat_table()
    rate = (abs(Y) + tab.u_cut) / (2.0 * X)      # oscillations per unit w
    p0 = max(64, math.ceil(tab.u_cut * (4.0 * rate + 4.0)))
    return _refine(lambda p: _dual_scaled(X, Y, p), p0, tol, _HARD_PANEL_CAP)


def h_j(j: int, x: float, y: float, tol: float = 1e-10) -> complex:
    """The scale-j oscillatory integral, to absolute accuracy ``tol``."""
    if j < 0:
        raise ValueError(f"scale j must be >= 0, got {j}")
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    return _osc_scaled(x * 4.0 ** j, y * 2.0 ** j, tol)


def h_scaled(X: float, Y: float, tol: float = 1e-10) -> complex:
    """Scale-free form: integral of e(X u^2 - Y u) psi(u) du.

    Valid for any integer scale k via X = lam*4**k, Y = y*2**k, including
    negative k where h_j's nonnegativity check does not apply.
    """
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    return _osc_scaled(X, Y, tol)


def h_row(k: int, lam: float, G: int, oversample: int = 8) -> np.ndarray:
    """H_k(lam, xi) for all grid frequencies xi_g, FFT layout.

    ``xi_g = g/G`` for ``g < G/2`` and ``(g-G)/G`` for ``g >= G/2``; the
    result aligns index-by-index with ``scipy.fft.fft`` of a length-G
    signal.  The integral is evaluated by trapezoid summation of the
    chirp at ``oversample`` times its bandwidth; the integrand is smooth
    and compactly supported, so the only error is spectral aliasing.

    Requires ``2**(k+1) <= G`` so the kernel support fits one period.
    """
    if G & (G - 1):
        raise ValueError(f"grid size G must be a power of two, got {G}")
    if k < 0 or 2 ** (k + 1) > G:
        raise ValueError(f"kernel scale 2^{k} does not fit grid G={G}")
    bandwidth = 2.0 * lam * 2.0 ** k + 0.5
    p = max(0, math.ceil(math.log2(oversample * bandwidth)))
    # at least 32 samples across the support of psi_k
    p = max(p, 5 - (k - 2))
    h = 2.0 ** (-p)
    nfft = G * 2 ** p
    half = int(round(2 ** k / h))
    n = np.arange(-half, half + 1, dtype=np.int64)
    t = n * h
    vals = np.exp(2j * np.pi * (lam * t * t)) * _psi_k_vals(k, t) * h
    buf = np.zeros(nfft, dtype=complex)
    buf[n % nfft] = vals  # 2^(k+1) <= G guarantees unique indices
    spec = sfft.fft(buf)
    out = np.empty(G, dtype=complex)
    half_g = G // 2
    out[:half_g] = spec[:half_g]
    out[half_g:] = spec[nfft - G + half_g:]
    return out


def _psi_k_vals(k: int, t: np.ndarray) -> np.ndarray:
    s = 2.0 ** (-k)
    return s * psi(s * t)


def mu(scale: ScaleIndex, tol: float = 1e-10) -> complex:
    """Zero Fourier mode of the single-scale chirp kernel.

    Vanishes identically for odd psi (the integrand is odd); computed by
    quadrature anyway so the cancellation is measured, not assumed.
    """
    return h_scaled(scale.lam * 4.0 ** scale.k, 0.0, tol)


def phi_kl_hat(scale: ScaleIndex, xi: float, tol: float = 1e-10) -> complex:
    """Mean-zero multiplier piece: H_k(lam, xi) - mu * phi_hat(2**k_l xi)."""
    val = h_scaled(scale.lam * 4.0 ** scale.k, xi * 2.0 ** scale.k, tol)
    m = mu(scale, tol)
    return val - m * complex(phi_hat(math.ldexp(xi, scale.k_l)))


def envelope_check(j: int, samples, tol: float = 1e-10) -> dict:
    """Empirical constant for |H_j| <= C min(norm_j, norm_j**-1/2).

    Returns the max over samples of |H_j| / min(...); (0, 0) is rejected
    since the envelope ratio degenerates there.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("sample list must be nonempty")
    best = 0.0
    arg = None
    for x, y in samples:
        nrm = osc_norm(j, x, y)
        if nrm == 0.0:
            raise ValueError("sample (0, 0) is degenerate for the envelope ratio")
        env = min(nrm, nrm ** -0.5)
        ratio = abs(h_j(j, x, y, tol)) / env
        if ratio > best:
            best, arg = ratio, (x, y)
    return {"j": j, "n_samples": len(samples), "max_ratio": best, "argmax": arg}
