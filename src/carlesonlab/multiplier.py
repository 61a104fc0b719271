"""Quadratic Weyl-sum multipliers and their circle-method approximants.

The dyadic multiplier piece is

    M_j(lam, beta) = sum_m e(lam m^2 - beta m) psi_j(m),

summed over 2**(j-2) <= |m| <= 2**j.  Phases are reduced modulo 1 in
exact integer arithmetic before the complex exponential is taken: a
float64 product lam * m**2 at j ~ 20 carries absolute error far above
2 pi, so the fractional part is computed from the dyadic expansion of
lam with 26-bit limb products that never overflow int64.

The major-arc model is S(A/Q, B/Q) * H_j(lam - A/Q, beta - B/Q) summed
against shrinking cutoffs chi_s over the shell rationals (one term,
``_shell_sum``); E_j is the difference.  ``decay_report`` measures its
decay in j in four stages per j: the sampled box centers, the uniform
grid (M_j by one transform, L_j at the grid points of the chi_s
windows), the sub-grids inside each sampled box, and a lambda-derivative
probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._memo import BoundedCache
from .arithmetic import (ReducedRational, _check_epsilon, _collected_qmax,
                         _frac1, _half_widths, enumerate_shell, gauss_sum,
                         torus_delta)
from .bumps import chi_s, psi_k
from .oscillatory import _expi, h_j

__all__ = [
    "GridSpec",
    "m_j",
    "m_j_grid",
    "m_j_rational_oracle",
    "big_l_j",
    "decay_report",
    "frac_part_exact",
]

J_CAP = 24
_MASK26 = (1 << 26) - 1
# per-j support and psi_j weights (up to j = 21)
_SUPPORT = BoundedCache(max_bytes=32 * 2 ** 20, max_entries=1)


def _limbs(x: float):
    """x = (k0 + k1*2^26 + k2*2^52) / 2^e exactly, each limb < 2^27."""
    if not math.isfinite(x):
        raise ValueError(f"phase reduction needs a finite value, got {x}")
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
    return _frac1(total)


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
    f = np.where(neg, _frac1(-f), f)
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
        f = _frac1(-f)
    return f


def _support(j: int):
    """Read-only (m, psi_j(m)) over 2**(j-2) <= m <= 2**j."""
    def build():
        m = np.arange(2 ** (j - 2), 2 ** j + 1, dtype=np.int64)
        return m, psi_k(j, m.astype(float))
    return _SUPPORT.get(j, build)


def m_j(j: int, lam: float, beta: float, *, phases=None) -> complex:
    """Dyadic Weyl-sum piece by direct summation with exact phase reduction.

    ``phases``, when given, is the pair (_frac_lam_msq(lam, m),
    frac_part_exact(beta, m)) over the support m of j.
    """
    if not 0 <= j <= J_CAP:
        raise ValueError(f"j must lie in [0, {J_CAP}], got {j}")
    m, w = _support(j)
    if phases is None:
        phases = _frac_lam_msq(lam, m), frac_part_exact(beta, m)
    fl, fb = phases
    # psi_j is odd: the m < 0 half contributes -e(lam m^2 + beta m) psi_j(m)
    pos = _expi(2 * np.pi * _frac1(fl - fb))
    neg = _expi(2 * np.pi * _frac1(fl + fb))
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


def m_j_grid(j: int, G: int) -> np.ndarray:
    """M_j(g/G, h/G) for the whole uniform grid, indexed [g, h].

    Phases at lam = g/G are exact integer residues, so M_j on the grid
    is a 2-D transform of the mass binned by (m^2 mod G, m mod G):
    M[g, h] = sum_{a,b} T[a, b] e(ga/G) e(-hb/G).
    """
    if G < 1 or G & (G - 1):
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
    # the inverse transform of the real table along axis 0 is the conjugate
    # of its forward real transform, scaled by 1/G, with the rows past G/2
    # filled by Hermitian symmetry: half the work of a complex inverse, and
    # bit-equal to scipy.fft.ifft's real-input path, from which a complex
    # inverse of the table differs in the last bit
    half = G // 2 + 1
    out = np.empty((G, G), dtype=complex)
    np.conj(np.fft.rfft(t, axis=0, norm="forward"), out=out[:half])
    np.conj(out[G - half:0:-1], out=out[half:])
    out *= G
    return np.fft.fft(out, axis=1, out=out)


# ---------------------------------------------------------------------------
# major-arc approximants
# ---------------------------------------------------------------------------

def _chi_radius(s: int) -> float:
    """chi_s(s, t) vanishes for |t| >= this radius."""
    return 0.2 * 10.0 ** (-s)


@lru_cache(maxsize=2 ** 12)
def _h_class(j: int, x: float, y: float, tol: float) -> complex:
    """H_j at the class (x, y) = (|dl|, |db|), kept for the process; h_j
    is looked up per miss, so a wrapper bound over it sees each one."""
    return h_j(j, x, y, tol)


def _h_at_offset(j: int, dl: float, db: float, tol: float) -> complex:
    """H_j(j, dl, db, tol), by its symmetry class.

    H_j is odd in y and H_j(-x, y) = -conj H_j(x, y), and every path of
    the quadrature keeps both rules bit for bit (up to the sign of a zero
    part, which no sum that starts from +0 can see).  So the value at
    the class (|dl|, |db|) is negated when db < 0, then -conj when dl < 0.
    """
    h = _h_class(j, abs(dl), abs(db), tol)
    if db < 0.0:
        h = -h
    if dl < 0.0:
        h = -h.conjugate()
    return h


def _shell_sum(j: int, s: int, lam: float, beta: float,
               shell: list[ReducedRational], tol: float) -> complex:
    """Sum over ``shell`` of S(r) H_j(lam - A/Q, beta - B/Q) chi_s chi_s:
    the shell-s term of L_j, to which at most one center contributes (the
    chi_s cutoffs at distinct shell rationals are disjointly supported)."""
    radius = _chi_radius(s)
    acc = 0.0 + 0.0j
    for r in shell:
        dl = float(torus_delta(lam - r.A / r.Q))
        if abs(dl) >= radius:
            continue
        db = float(torus_delta(beta - r.B / r.Q))
        if abs(db) >= radius:
            continue
        cut = float(chi_s(s, dl)) * float(chi_s(s, db))
        if cut == 0.0:
            continue
        acc += gauss_sum(r) * _h_at_offset(j, dl, db, tol) * cut
    return complex(acc)


def _shells(j: int, epsilon: float) -> dict:
    """The shells s <= epsilon * j of L_j, each enumerated."""
    return {s: enumerate_shell(s)
            for s in range(1, math.floor(epsilon * j) + 1)}


def _l_j(j: int, lam: float, beta: float, shells: dict, tol: float) -> complex:
    """L_j over ``shells`` as built by _shells."""
    acc = 0.0 + 0.0j
    for s, shell in shells.items():
        acc += _shell_sum(j, s, lam, beta, shell, tol)
    return complex(acc)


def big_l_j(j: int, lam: float, beta: float, epsilon: float,
            tol: float = 1e-10) -> complex:
    """L_j = sum of the shell terms over 1 <= s <= epsilon * j."""
    _check_epsilon(epsilon)
    return _l_j(j, lam, beta, _shells(j, epsilon), tol)


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


def _log2_slope(points) -> float | None:
    """Least-squares slope of log2(v) against x over the (x, v) with v > 0;
    None when those points have fewer than two distinct x."""
    pts = [(x, v) for x, v in points if v > 0.0]
    if len({x for x, _ in pts}) < 2:
        return None
    xs = np.array([p[0] for p in pts], dtype=float)
    vals = np.array([p[1] for p in pts])
    return float(np.polyfit(xs, np.log2(vals), 1)[0])


def _box_samples(j: int, epsilon: float, center: ReducedRational, P: int):
    wl, wb = _half_widths(j, epsilon)
    c_l = center.A / center.Q
    c_b = center.B / center.Q
    lams = _frac1(c_l + np.linspace(-wl, wl, P))
    betas = _frac1(c_b + np.linspace(-wb, wb, P))
    return lams, betas


def _grid_point_in_major_boxes(g: int, h: int, G: int, j: int,
                               epsilon: float) -> bool:
    """Membership of (g/G, h/G) in the union of boxes with Q <= 2^(6 eps j).

    A box (A, B, Q) has its lambda center A/Q = a/q0 in lowest terms,
    with Q = q0*m for some m <= qmax // q0.  Since 2 wl qmax < 1, each q0
    has at most one a within the lambda half-width wl of g/G, its nearest
    numerator; every such reduced a/q0 is taken (there may be several
    once G*qmax*wl >= 1), and then some B compatible with gcd(A, B, Q) = 1
    must sit within the beta half-width of h/G.
    """
    qmax = _collected_qmax(j, epsilon)
    wl, wb = _half_widths(j, epsilon)
    lam = g / G
    qs = np.arange(1, qmax + 1, dtype=np.int64)
    nums = np.floor(lam * qs + 0.5).astype(np.int64) % qs
    near = (np.abs(torus_delta(lam - nums / qs)) <= wl) & \
        (np.gcd(nums, qs) == 1)
    # every candidate (q0, mult, b) at once, indexed [q0, mult - 1, b]: the
    # four numerators b around beta*Q for Q = q0*mult <= qmax; then, for
    # those within wb, gcd(A, B, Q) of (a*mult, b, q0*mult), which reduces
    # to gcd(b, mult)
    q = qs[near][:, None, None] * qs[:, None]
    beta = h / G
    b = np.floor(beta * q).astype(np.int64) + np.arange(-1, 3)
    close = (q <= qmax) & (np.abs(torus_delta(beta - b / q)) <= wb)
    i, m, _ = np.nonzero(close)
    return bool((np.gcd(b[close] % q[i, m, 0], m + 1) == 1).any())


def _sample_shell_centers(s: int, count: int, rng) -> list[ReducedRational]:
    """Seeded random reduced triples from shell s (no full enumeration)."""
    if s == 1:
        # the shell's one triple; every draw below is from a one-value
        # range, which takes nothing from the generator
        return [ReducedRational(1, 0, 0)][:count]
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


def _sampled_centers(j: int, epsilon: float, shells: dict,
                     boxes_per_shell: int, rng) -> list[ReducedRational]:
    """Stage 1: the decomposition centers (every center of the shells
    s <= eps j), then ``boxes_per_shell`` seeded centers from each shell
    of the collected family Q <= 2**(6 eps j) that are not listed yet."""
    sampled = [r for shell in shells.values() for r in shell]
    seen = set(sampled)
    qmax = _collected_qmax(j, epsilon)
    for s in range(1, math.floor(6 * epsilon * j) + 1):
        for r in _sample_shell_centers(s, boxes_per_shell, rng):
            if r.Q <= qmax and r not in seen:
                seen.add(r)
                sampled.append(r)
    return sampled


def _grid_stage(j: int, epsilon: float, G: int, shells: dict, tol: float):
    """Stage 2: E_j = M_j - L_j on the uniform G x G grid.

    L_j vanishes outside the chi_s windows of the decomposition centers,
    so L_j is evaluated only at the grid points of those windows; a
    window's offsets come in symmetry classes of up to four (_h_at_offset),
    and the same classes recur at every call for that j.
    Returns (E_j indexed [g, h], (sup |E_j|, argmax), sup |L_j| over the
    grid points outside the collected boxes).
    """
    e = m_j_grid(j, G)
    window = np.zeros((G, G), dtype=bool)
    for s, shell in shells.items():
        radius = _chi_radius(s)
        for r in shell:
            g, h = (np.arange(math.floor((c - radius) * G),
                              math.ceil((c + radius) * G) + 1) % G
                    for c in (r.A / r.Q, r.B / r.Q))
            window[np.ix_(g, h)] = True
    sup_l_off = 0.0
    for g, h in zip(*np.nonzero(window)):
        g, h = int(g), int(h)
        lval = _l_j(j, g / G, h / G, shells, tol)
        e[g, h] -= lval
        if abs(lval) > sup_l_off and \
                not _grid_point_in_major_boxes(g, h, G, j, epsilon):
            sup_l_off = abs(lval)
    mat = np.abs(e)
    i_flat = int(np.argmax(mat))
    sup_e = (float(mat.flat[i_flat]), (i_flat // G / G, i_flat % G / G))
    return e, sup_e, sup_l_off


def _box_stage(j: int, epsilon: float, centers: list[ReducedRational],
               shells: dict, P: int, major_strata: int, tol: float):
    """Stage 3: sup |E_j| and sup |M_j - S H_j| over the box strata.

    A decomposition center's box carries P x P samples and adds to
    sup |E_j|; any other center's box carries major_strata x major_strata
    samples and adds to sup |E_j| over uncovered boxes instead (L_j does
    not reach it, so |E_j| there is of order |S| until eps j reaches its
    shell).  The model's H_j at a sample is H_j(j, dl, db) at the sample's
    offset (dl, db) from its box center, read by symmetry class
    (|dl|, |db|) as in _h_at_offset, for the L_j sums and the model alike:
    the P x P offsets of the boxes of one j largely coincide, and a
    centered box's offsets pair off in sign.

    Returns ((sup |E_j|, argmax), sup |E_j| uncovered,
    (sup |M_j - S H_j|, argmax)); an argmax is None while its sup is 0.
    """
    dec = {r for shell in shells.values() for r in shell}
    m, _ = _support(j)
    sup_e, arg_e = 0.0, None
    sup_uncovered = 0.0
    sup_major, arg_major = 0.0, None
    for r in centers:
        in_dec = r in dec
        lams, betas = _box_samples(j, epsilon, r, P if in_dec else major_strata)
        dls = torus_delta(lams - r.A / r.Q).tolist()
        dbs = torus_delta(betas - r.B / r.Q).tolist()
        sgs = gauss_sum(r)
        # each sample lam and beta of the box is reduced once
        fbs = [frac_part_exact(beta, m) for beta in betas.tolist()]
        for lam, dl in zip(lams.tolist(), dls):
            fl = _frac_lam_msq(lam, m)
            for beta, db, fb in zip(betas.tolist(), dbs, fbs):
                mv = m_j(j, lam, beta, phases=(fl, fb))
                ev = abs(mv - _l_j(j, lam, beta, shells, tol))
                err = abs(mv - sgs * _h_at_offset(j, dl, db, tol))
                if err > sup_major:
                    sup_major = err
                    arg_major = (lam, beta, [r.Q, r.A, r.B])
                if in_dec:
                    if ev > sup_e:
                        sup_e, arg_e = ev, (lam, beta)
                elif ev > sup_uncovered:
                    sup_uncovered = ev
    return (sup_e, arg_e), sup_uncovered, (sup_major, arg_major)


def _derivative_stage(j: int, shells: dict, points, tol: float) -> float:
    """Stage 4: max |dE_j/dlam| / 4**j by central differences at ``points``."""
    hstep = 2.0 ** (-2 * j - 8)
    m, _ = _support(j)
    dmax = 0.0
    for lam, beta in points:
        b = float(beta)
        fb = frac_part_exact(b, m)   # shared by lam + h and lam - h
        ep, em = (m_j(j, x, b, phases=(_frac_lam_msq(x, m), fb))
                  - _l_j(j, x, b, shells, tol)
                  for x in (float(lam + hstep), float(lam - hstep)))
        dmax = max(dmax, abs(ep - em) / (2 * hstep))
    return dmax / 4.0 ** j


def decay_report(j_list, epsilon: float = 0.1, grid: GridSpec | None = None,
                 tol: float = 1e-10, n_derivative_samples: int = 50,
                 boxes_per_shell: int = 4, major_strata: int = 3,
                 seed: int = 20240901) -> dict:
    """Measure the decay of sup |E_j| and friends over a stratified grid.

    Per j four stages run: the sampled box centers, the uniform grid,
    the box strata and the derivative probe.  The report records:

    * ``sup_abs_Ej``: sup |E_j| over the uniform GxG grid plus the strata
      of the decomposition boxes (boxes are far below grid resolution,
      so each box carries its own ``strata x strata`` sub-grid).
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
        shells = _shells(j, epsilon)
        sampled = _sampled_centers(j, epsilon, shells, boxes_per_shell, rng)
        _, grid_sup, sup_l_off = _grid_stage(j, epsilon, G, shells, tol)
        box_sup, sup_e_uncovered, (sup_major, arg_major) = _box_stage(
            j, epsilon, sampled, shells, P, major_strata, tol)
        # ties keep the grid point
        sup_e, arg_e = max(grid_sup, box_sup, key=lambda pair: pair[0])
        per_j.append({
            "j": j,
            "sup_abs_Ej": sup_e,
            "argmax_Ej": arg_e,
            "sup_abs_Ej_uncovered_boxes": sup_e_uncovered,
            "sup_major_arc_error": sup_major,
            "argmax_major": arg_major,
            "sup_abs_Lj_off_boxes": sup_l_off,
            "n_boxes_sampled": len(sampled),
            "derivative_ratio": _derivative_stage(j, shells, der_points, tol),
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
        out["slopes"][name] = _log2_slope((r["j"], r[key]) for r in per_j)
    out["constants"]["derivative_ratio_max"] = max(r["derivative_ratio"]
                                                   for r in per_j)
    return out
