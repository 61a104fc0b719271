"""Quadratic Weyl-sum multipliers and their circle-method approximants.

The dyadic multiplier piece is

    M_j(lam, beta) = sum_m e(lam m^2 - beta m) psi_j(m),

summed over 2**(j-2) <= |m| <= 2**j.  Phases are reduced modulo 1 in
exact integer arithmetic before the complex exponential is taken: a
float64 product lam * m**2 at j ~ 20 carries absolute error far above
2 pi, so the fractional part is computed from the dyadic expansion of
lam with 26-bit limb products that never overflow int64.

The major-arc model is S(A/Q, B/Q) * H_j(lam - A/Q, beta - B/Q) summed
against shrinking cutoffs chi_s over the shell rationals; E_j is the
difference, and ``decay_report`` measures its decay in j over a
stratified grid (uniform grid plus sub-grids inside each major box).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.fft as sfft

from ._memo import BoundedCache
from .arithmetic import (ReducedRational, _check_epsilon, enumerate_shell,
                         gauss_sum, torus_delta)
from .bumps import chi_s, psi_k
from .oscillatory import h_j

__all__ = [
    "FrequencyGrid",
    "GridSpec",
    "sample_multiplier_grid",
    "m_j",
    "m_j_rational_oracle",
    "m_j_row",
    "l_js",
    "big_l_j",
    "e_j",
    "decay_report",
    "frac_part_exact",
]

J_CAP = 24
_MASK26 = (1 << 26) - 1
# per-j support and psi_j weights (up to j = 21), and the exact phase
# reductions lam m^2 and beta m over that support, shared by the points
# of a box that repeat a lam or a beta
_SUPPORT = BoundedCache(max_bytes=32 * 2 ** 20, max_entries=1)
_LAM_PHASES = BoundedCache(max_bytes=8 * 2 ** 20, max_entries=8)
_BETA_PHASES = BoundedCache(max_bytes=8 * 2 ** 20, max_entries=8)


def _limbs(x: float):
    """x = (k0 + k1*2^26 + k2*2^52) / 2^e exactly, each limb < 2^27."""
    m, e2 = math.frexp(abs(x))
    k = int(m * (1 << 53))
    return k & _MASK26, (k >> 26) & _MASK26, k >> 52, 53 - e2


def _frac_terms(k_limbs, e: int, operands):
    """fractional part of (sum_i k_i 2^{26 i}) * (sum of s * 2^off) / 2^e.

    ``operands`` are (s, off) pairs of nonnegative int64 arrays and shifts.
    """
    total = np.zeros(operands[0][0].shape, dtype=float)
    for i, ki in enumerate(k_limbs):
        if ki == 0:
            continue
        for s, off in operands:
            c = 26 * i + off - e
            if c >= 0:
                continue  # integer contribution
            p = ki * s
            if -c <= 62:
                p = p & ((1 << (-c)) - 1)
            total += p.astype(float) * 2.0 ** c
    return total % 1.0


def _check_range(m: np.ndarray, lo: int, hi: int, what: str) -> None:
    if m.size and (m.min() < lo or m.max() > hi):
        raise ValueError(f"{what} needs {lo} <= m <= {hi}, got m in "
                         f"[{m.min()}, {m.max()}]")


def frac_part_exact(x: float, m: np.ndarray) -> np.ndarray:
    """(x * m) mod 1 for int64 m with |m| < 2^25, exact up to final rounding."""
    _check_range(m, 1 - 2 ** 25, 2 ** 25 - 1, "frac_part_exact")
    if x == 0.0:
        return np.zeros(m.shape, dtype=float)
    k0, k1, k2, e = _limbs(x)
    f = _frac_terms((k0, k1, k2), e, ((np.abs(m), 0),))
    neg = (m < 0) != (x < 0)
    f = np.where(neg, (-f) % 1.0, f)
    return f


def _frac_lam_msq(x: float, m: np.ndarray) -> np.ndarray:
    """(x * m^2) mod 1 for int64 m with |m| <= 2^24, exact up to rounding."""
    _check_range(m, -2 ** 24, 2 ** 24, "_frac_lam_msq")
    if x == 0.0:
        return np.zeros(m.shape, dtype=float)
    k0, k1, k2, e = _limbs(x)
    sq = m.astype(np.int64) ** 2
    s0 = sq & ((1 << 24) - 1)
    s1 = sq >> 24
    f = _frac_terms((k0, k1, k2), e, ((s0, 0), (s1, 24)))
    if x < 0.0:
        f = (-f) % 1.0
    return f


def _support(j: int):
    """Read-only (m, psi_j(m)) over 2**(j-2) <= m <= 2**j."""
    def build():
        m = np.arange(2 ** (j - 2), 2 ** j + 1, dtype=np.int64)
        return m, psi_k(j, m.astype(float))
    return _SUPPORT.get(j, build)


def m_j(j: int, lam: float, beta: float) -> complex:
    """Dyadic Weyl-sum piece by direct summation with exact phase reduction."""
    if not 0 <= j <= J_CAP:
        raise ValueError(f"j must lie in [0, {J_CAP}], got {j}")
    m, w = _support(j)
    fl = _LAM_PHASES.get((j, lam), lambda: _frac_lam_msq(lam, m))
    fb = _BETA_PHASES.get((j, beta), lambda: frac_part_exact(beta, m))
    # psi_j is odd: the m < 0 half contributes -e(lam m^2 + beta m) psi_j(m)
    pos = np.exp(2j * np.pi * ((fl - fb) % 1.0))
    neg = np.exp(2j * np.pi * ((fl + fb) % 1.0))
    return complex(np.sum(w * (pos - neg)))


def m_j_rational_oracle(j: int, lam: Fraction, beta: Fraction) -> complex:
    """Independent oracle: phases reduced in exact rational arithmetic.

    Slow (per-term Python fractions); used by tests against m_j.
    """
    acc = 0.0 + 0.0j
    for m in range(2 ** (j - 2), 2 ** j + 1):
        w = float(psi_k(j, float(m)))
        if w == 0.0:
            continue
        ph_pos = float((lam * m * m - beta * m) % 1)
        ph_neg = float((lam * m * m + beta * m) % 1)
        acc += w * (np.exp(2j * np.pi * ph_pos) - np.exp(2j * np.pi * ph_neg))
    return acc


class _RowWorkspace:
    """Per-j cached tables for evaluating M_j along full grid rows."""

    def __init__(self, j: int, G: int):
        self.j = j
        self.G = G
        self.m, self.w = _support(j)
        self.sq_mod = (self.m * self.m) % G
        self.roots = np.exp(2j * np.pi * np.arange(G) / G)


def m_j_grid(j: int, G: int) -> np.ndarray:
    """M_j(g/G, h/G) for the whole uniform grid, indexed [g, h].

    Phases at lam = g/G are exact integer residues, so M_j on the grid
    is a 2-D transform of the mass binned by (m^2 mod G, m mod G):
    M[g, h] = sum_{a,b} T[a, b] e(ga/G) e(-hb/G).
    """
    if G & (G - 1):
        raise ValueError(f"G must be a power of two, got {G}")
    if not 0 <= j <= J_CAP:
        raise ValueError(f"j must lie in [0, {J_CAP}], got {j}")
    m, w = _support(j)
    a = (m * m) % G
    b_pos = m % G
    b_neg = (-m) % G
    idx = np.concatenate([a * G + b_pos, a * G + b_neg])
    vals = np.concatenate([w, -w])
    t = np.bincount(idx, weights=vals, minlength=G * G).reshape(G, G)
    return sfft.fft(sfft.ifft(t, axis=0) * G, axis=1)

def _fold_consecutive(vals: np.ndarray, start: int, G: int) -> np.ndarray:
    """Sum values living at consecutive integer indices start.. into bins mod G."""
    n = len(vals)
    off = start % G
    pad_tail = (-(off + n)) % G
    padded = np.concatenate([np.zeros(off, vals.dtype), vals,
                             np.zeros(pad_tail, vals.dtype)])
    return padded.reshape(-1, G).sum(axis=0)


def m_j_row(j: int, g: int, G: int, workspace: _RowWorkspace | None = None) -> np.ndarray:
    """M_j(g/G, h/G) for all h at once (exact integer phases, one FFT).

    For lam = g/G with G a power of two the phase lam m^2 mod 1 is
    (g (m^2 mod G) mod G)/G, an exact table lookup; the DFT over h is the
    defining sum evaluated jointly.
    """
    if G & (G - 1):
        raise ValueError(f"G must be a power of two, got {G}")
    if not 0 <= j <= J_CAP:
        raise ValueError(f"j must lie in [0, {J_CAP}], got {j}")
    ws = workspace if workspace is not None else _RowWorkspace(j, G)
    G = ws.G
    phase_idx = (g * ws.sq_mod) % G
    vals = ws.roots[phase_idx] * ws.w
    pos = _fold_consecutive(vals, int(ws.m[0]), G)
    # m < 0 half: value at -m is -e(lam m^2) e(-beta (-m)) psi_j(m) -> place
    # -vals reversed at indices -m_max .. -m_min
    neg = _fold_consecutive(-vals[::-1], int(-ws.m[-1]), G)
    return sfft.fft(pos + neg)


# ---------------------------------------------------------------------------
# major-arc approximants
# ---------------------------------------------------------------------------

def l_js(j: int, s: int, lam: float, beta: float,
         shell: list[ReducedRational] | None = None, tol: float = 1e-10) -> complex:
    """Shell-s major-arc approximant at (lam, beta).

    At most one center contributes: the chi_s cutoffs at distinct shell
    rationals are disjointly supported.
    """
    if s < 1:
        raise ValueError(f"shell index must be >= 1, got {s}")
    if shell is None:
        shell = enumerate_shell(s)
    support = 0.2 * 10.0 ** (-s)
    acc = 0.0 + 0.0j
    for r in shell:
        dl = float(torus_delta(lam - r.A / r.Q))
        if abs(dl) >= support:
            continue
        db = float(torus_delta(beta - r.B / r.Q))
        if abs(db) >= support:
            continue
        cut = float(chi_s(s, dl)) * float(chi_s(s, db))
        if cut == 0.0:
            continue
        acc += gauss_sum(r) * h_j(j, dl, db, tol) * cut
    return complex(acc)


def big_l_j(j: int, lam: float, beta: float, epsilon: float,
            shells: dict | None = None, tol: float = 1e-10) -> complex:
    """L_j = sum of l_js over 1 <= s <= epsilon * j."""
    _check_epsilon(epsilon)
    smax = math.floor(epsilon * j)
    acc = 0.0 + 0.0j
    for s in range(1, smax + 1):
        shell = shells[s] if shells is not None else None
        acc += l_js(j, s, lam, beta, shell, tol)
    return complex(acc)


def e_j(j: int, lam: float, beta: float, epsilon: float = 0.1,
        tol: float = 1e-10, shells: dict | None = None) -> complex:
    """Approximation error E_j = M_j - L_j; ``shells`` as in big_l_j."""
    _check_epsilon(epsilon)
    return m_j(j, lam, beta) - big_l_j(j, lam, beta, epsilon, shells, tol)


def l_super_s(s: int, lam: float, beta: float, epsilon: float,
              j_max: int, tol: float = 1e-10) -> complex:
    """Shell-first regrouping: sum of l_js over j with s <= epsilon j <= epsilon j_max.

    Truncated at j_max, this reorders the double sum defining L; the two
    groupings agree pointwise on truncations.
    """
    _check_epsilon(epsilon)
    if s < 1:
        raise ValueError(f"shell index must be >= 1, got {s}")
    j_min = math.ceil(s / epsilon)
    shell = enumerate_shell(s)
    acc = 0.0 + 0.0j
    for j in range(j_min, j_max + 1):
        acc += l_js(j, s, lam, beta, shell, tol)
    return complex(acc)


@dataclass(frozen=True)
class GridSpec:
    """Stratified sampling plan for the (lam, beta) torus.

    ``G`` is the uniform grid size per axis; ``strata`` is the per-axis
    sub-grid size planted inside each major box (the boxes are far below
    uniform-grid resolution, so each box carries its own samples).  A
    stratum of fewer than 3 points per axis cannot place its samples at
    spacing <= half the box's minor dimension and is rejected.
    """

    G: int = 512
    strata: int = 5

    def __post_init__(self):
        if self.G < 64 or self.G & (self.G - 1):
            raise ValueError(f"G must be a power of two >= 64, got {self.G}")
        if self.strata < 3:
            raise ValueError(
                f"under-resolved grid: {self.strata} samples per box axis "
                "put the spacing above half the box minor dimension"
            )


@dataclass(frozen=True)
class FrequencyGrid:
    """Sampled multiplier values on a (lam, beta) rectangle.

    ``values[i, j]`` belongs to ``(lambda_samples[i], beta_samples[j])``;
    samples are strictly increasing and every value is finite.
    """

    lambda_samples: np.ndarray
    beta_samples: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambda_samples, dtype=float)
        beta = np.asarray(self.beta_samples, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (len(lam), len(beta)):
            raise ValueError("values shape must match the sample lists")
        if np.any(np.diff(lam) <= 0) or np.any(np.diff(beta) <= 0):
            raise ValueError("samples must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("all values must be finite")
        object.__setattr__(self, "lambda_samples", lam)
        object.__setattr__(self, "beta_samples", beta)
        object.__setattr__(self, "values", vals)


def sample_multiplier_grid(j: int, G: int) -> FrequencyGrid:
    """M_j sampled on the uniform G x G torus grid as a FrequencyGrid."""
    vals = m_j_grid(j, G)
    ticks = np.arange(G) / G
    return FrequencyGrid(lambda_samples=ticks, beta_samples=ticks, values=vals)


def _box_samples(j: int, epsilon: float, center: ReducedRational, P: int):
    wl = 2.0 ** ((epsilon - 2.0) * j)
    wb = 2.0 ** ((epsilon - 1.0) * j)
    c_l = center.A / center.Q
    c_b = center.B / center.Q
    lams = (c_l + np.linspace(-wl, wl, P)) % 1.0
    betas = (c_b + np.linspace(-wb, wb, P)) % 1.0
    return lams, betas


def _grid_point_in_major_boxes(g: int, h: int, G: int, j: int,
                               epsilon: float) -> bool:
    """Membership of (g/G, h/G) in the union of boxes with Q <= 2^(6 eps j).

    The lambda half-width is far below 1/G, so membership forces the
    lambda center to equal g/G exactly; its reduced denominator dg must
    divide Q = dg*m <= qmax, and some B coprime-compatible center must
    sit within the beta half-width.
    """
    qmax = int(2.0 ** (6.0 * epsilon * j) + 1e-9)
    wl = 2.0 ** ((epsilon - 2.0) * j)
    wb = 2.0 ** ((epsilon - 1.0) * j)
    gg = math.gcd(g, G)
    dg = G // gg
    if dg > qmax and wl < 0.5 / G:
        return False
    a = g // gg
    beta = h / G
    for mult in range(1, qmax // dg + 1):
        q = dg * mult
        b0 = math.floor(beta * q)
        for b in (b0 - 1, b0, b0 + 1, b0 + 2):
            # gcd(A, B, Q) for (a*mult, b, dg*mult) reduces to gcd(b, mult)
            if abs(torus_delta(beta - b / q)) <= wb and \
                    math.gcd(b % q, mult) == 1:
                return True
    return False


def _sample_shell_centers(s: int, count: int, rng) -> list[ReducedRational]:
    """Seeded random reduced triples from shell s (no full enumeration)."""
    out = []
    seen = set()
    tries = 0
    while len(out) < count and tries < 200 * count:
        tries += 1
        q = int(rng.integers(2 ** (s - 1), 2 ** s))
        a = int(rng.integers(0, q))
        b = int(rng.integers(0, q))
        if math.gcd(math.gcd(a, b), q) != 1:
            continue
        key = (q, a, b)
        if key in seen:
            continue
        seen.add(key)
        out.append(ReducedRational(q, a, b))
    return out


def decay_report(j_list, epsilon: float = 0.1, grid: GridSpec | None = None,
                 tol: float = 1e-10, n_derivative_samples: int = 50,
                 boxes_per_shell: int = 4, major_strata: int = 3,
                 seed: int = 20240901) -> dict:
    """Measure the decay of sup |E_j| and friends over a stratified grid.

    Per j the report records:

    * ``sup_abs_Ej``: sup |E_j| over the uniform GxG grid plus all box
      strata (boxes are far below grid resolution, so each sampled box
      carries its own ``strata x strata`` sub-grid).
    * ``sup_major_arc_error``: sup over box strata of |M_j - S H_j|.
      Boxes come from every shell of the collected family Q <= 2**(6
      eps j), ``boxes_per_shell`` seeded random centers per shell (the
      shells with s <= eps j additionally contribute all their centers,
      since those define the decomposition itself).
    * ``sup_abs_Lj_off_boxes``: sup |L_j| over uniform grid points that
      lie outside the collected box family.
    * ``derivative_ratio``: max |dE_j/dlam| / 2**(2j) by central
      differences at seeded random points.

    Slopes are least-squares fits of log2(sup) against j over the j with
    a nonzero sup.
    """
    j_list = sorted(set(int(j) for j in j_list))
    if not j_list:
        raise ValueError("j_list must be nonempty")
    if j_list[0] < 2 or j_list[-1] > J_CAP:
        raise ValueError(f"j range must lie in [2, {J_CAP}]")
    _check_epsilon(epsilon)
    grid = grid or GridSpec()
    G, P = grid.G, grid.strata
    rng = np.random.default_rng(seed)
    der_points = rng.random((n_derivative_samples, 2))
    per_j = []
    for j in j_list:
        smax_dec = math.floor(epsilon * j)
        shells = {s: enumerate_shell(s) for s in range(1, smax_dec + 1)}
        dec_centers = [r for sh in shells.values() for r in sh]
        # sampled centers from the full collected family Q <= 2^(6 eps j)
        smax_col = math.floor(6 * epsilon * j)
        qmax_col = int(2.0 ** (6 * epsilon * j) + 1e-9)
        sampled = list(dec_centers)
        seen = {(r.Q, r.A, r.B) for r in sampled}
        for s in range(1, smax_col + 1):
            for r in _sample_shell_centers(s, boxes_per_shell, rng):
                if r.Q <= qmax_col and (r.Q, r.A, r.B) not in seen:
                    seen.add((r.Q, r.A, r.B))
                    sampled.append(r)
        # uniform grid: full matrix of M_j, then L_j corrections near cutoffs
        cmat = m_j_grid(j, G)
        sup_l_off = 0.0
        for s, shell in shells.items():
            supp = 0.2 * 10.0 ** (-s)
            for r in shell:
                sgs = gauss_sum(r)
                cl = r.A / r.Q
                cb = r.B / r.Q
                g_lo = math.floor((cl - supp) * G)
                g_hi = math.ceil((cl + supp) * G)
                h_lo = math.floor((cb - supp) * G)
                h_hi = math.ceil((cb + supp) * G)
                for g in range(g_lo, g_hi + 1):
                    dl = float(torus_delta(g / G - cl))
                    cut_l = float(chi_s(s, dl))
                    if cut_l == 0.0:
                        continue
                    for h in range(h_lo, h_hi + 1):
                        db = float(torus_delta(h / G - cb))
                        cut_b = float(chi_s(s, db))
                        if cut_b == 0.0:
                            continue
                        lval = sgs * h_j(j, dl, db, tol) * cut_l * cut_b
                        gg, hh = g % G, h % G
                        # the chi_s supports are disjoint across centers,
                        # so each grid point receives one correction
                        cmat[gg, hh] -= lval
                        if abs(lval) > sup_l_off and \
                                not _grid_point_in_major_boxes(gg, hh, G, j, epsilon):
                            sup_l_off = max(sup_l_off, abs(lval))
        mat = np.abs(cmat)
        i_flat = int(np.argmax(mat))
        sup_e = float(mat.flat[i_flat])
        arg_e = (i_flat // G / G, i_flat % G / G)
        # box strata: E_j over the decomposition boxes (those are the grid's
        # strata), major-arc error over the full sampled family.  E_j at
        # sampled boxes in shells above eps*j is reported separately: L_j
        # does not cover them, so |E_j| there is order |S| and does not
        # decay until eps*j reaches their shell.
        dec_keys = {(r.Q, r.A, r.B) for r in dec_centers}
        sup_major = 0.0
        arg_major = None
        sup_e_uncovered = 0.0
        for r in sampled:
            in_dec = (r.Q, r.A, r.B) in dec_keys
            lams, betas = _box_samples(j, epsilon, r, P if in_dec else major_strata)
            sgs = gauss_sum(r)
            for lam in lams:
                dl = float(torus_delta(lam - r.A / r.Q))
                for beta in betas:
                    mv = m_j(j, float(lam), float(beta))
                    db = float(torus_delta(beta - r.B / r.Q))
                    model = sgs * h_j(j, dl, db, tol)
                    err = abs(mv - model)
                    if err > sup_major:
                        sup_major = err
                        arg_major = (float(lam), float(beta),
                                     [r.Q, r.A, r.B])
                    ev = abs(mv - big_l_j(j, float(lam), float(beta), epsilon,
                                          shells, tol))
                    if in_dec:
                        if ev > sup_e:
                            sup_e = ev
                            arg_e = (float(lam), float(beta))
                    elif ev > sup_e_uncovered:
                        sup_e_uncovered = ev
        # lambda-derivative probe
        hstep = 2.0 ** (-2 * j - 8)
        dmax = 0.0
        for lam, beta in der_points:
            ep = e_j(j, float(lam + hstep), float(beta), epsilon, tol, shells)
            em = e_j(j, float(lam - hstep), float(beta), epsilon, tol, shells)
            dmax = max(dmax, abs(ep - em) / (2 * hstep))
        per_j.append({
            "j": j,
            "sup_abs_Ej": sup_e,
            "argmax_Ej": arg_e,
            "sup_abs_Ej_uncovered_boxes": sup_e_uncovered,
            "sup_major_arc_error": sup_major,
            "argmax_major": arg_major,
            "sup_abs_Lj_off_boxes": sup_l_off,
            "n_boxes_sampled": len(sampled),
            "derivative_ratio": dmax / 4.0 ** j,
        })
    out = {
        "epsilon": epsilon,
        "grid": {"G": G, "strata": P},
        "tol": tol,
        "seed": seed,
        "boxes_per_shell": boxes_per_shell,
        "major_strata": major_strata,
        "j_list": j_list,
        "per_j": per_j,
        "slopes": {},
        "constants": {},
    }
    for key, name in [("sup_abs_Ej", "Ej"), ("sup_major_arc_error", "major_arc"),
                      ("sup_abs_Lj_off_boxes", "Lj_off_boxes")]:
        pts = [(r["j"], r[key]) for r in per_j if r[key] > 0.0]
        if len(pts) >= 2:
            js = np.array([p[0] for p in pts], dtype=float)
            vals = np.array([p[1] for p in pts])
            out["slopes"][name] = float(np.polyfit(js, np.log2(vals), 1)[0])
        else:
            out["slopes"][name] = None
    out["constants"]["derivative_ratio_max"] = max(r["derivative_ratio"]
                                                   for r in per_j)
    return out
