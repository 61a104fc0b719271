"""Reduced rationals on the torus, complete Gauss sums, major boxes.

A reduced triple (A, B, Q) has 0 <= A, B < Q and gcd(A, B, Q) = 1; it
names the rational pair (A/Q, B/Q) on the 2-torus uniquely.  The
normalized complete Gauss sum is

    S(A/Q, B/Q) = (1/Q) * sum_{r=0}^{Q-1} e(A r^2 / Q - B r / Q).

``gauss_sum`` is the direct O(Q) summation and doubles as the oracle for
the batched path: ``gauss_rows`` evaluates many A against every B at
once (the DFT over B is the same sum evaluated jointly, with the phases
gathered from one table of Q-th roots of unity).  The odd-Q modulus law
and the decay sweep both run on it; the sweep additionally quotients by
the exact unit-orbit symmetry S(A u^2, B u, Q) = S(A, B, Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np
import scipy.fft as sfft

__all__ = [
    "ReducedRational",
    "MajorBox",
    "enumerate_shell",
    "shell_size",
    "gauss_sum",
    "gauss_row",
    "gauss_rows",
    "square_class_reps",
    "gauss_decay_scan",
    "odd_q_modulus_deviation",
    "find_box_overlaps",
    "torus_dist",
    "torus_delta",
]

SHELL_CAP = 2 ** 16
DECAY_EXPONENT = 0.45         # the Gauss decay scan's max of |S| * Q**exponent
MAX_WITNESSES = 16            # overlap witnesses the box scan reports


def torus_delta(x) -> np.ndarray | float:
    """Signed representative of x mod 1 in [-1/2, 1/2)."""
    return (np.asarray(x, dtype=float) + 0.5) % 1.0 - 0.5


def torus_dist(x) -> np.ndarray | float:
    """Distance to the nearest integer."""
    return np.abs(torus_delta(x))


@dataclass(frozen=True, order=True)
class ReducedRational:
    """Center (A/Q, B/Q) of a circle-method box; gcd(A, B, Q) = 1."""

    Q: int
    A: int
    B: int

    def __post_init__(self):
        if self.Q < 1:
            raise ValueError(f"Q must be positive, got {self.Q}")
        if not (0 <= self.A < self.Q and 0 <= self.B < self.Q):
            raise ValueError(f"need 0 <= A,B < Q, got {self!r}")
        if gcd(gcd(self.A, self.B), self.Q) != 1:
            raise ValueError(f"gcd(A, B, Q) != 1 for {self!r}")

    @property
    def shell(self) -> int:
        """s with 2**(s-1) <= Q < 2**s."""
        return self.Q.bit_length()


def enumerate_shell(s: int) -> list[ReducedRational]:
    """All reduced triples with 2**(s-1) <= Q < 2**s, lexicographic in (Q, A, B)."""
    if s < 1:
        raise ValueError(f"shell index must be >= 1, got {s}")
    if 2 ** s > SHELL_CAP:
        raise ValueError(f"shell 2^{s} exceeds cap {SHELL_CAP}")
    out: list[ReducedRational] = []
    for q in range(2 ** (s - 1), 2 ** s):
        g_aq = np.gcd(np.arange(q, dtype=np.int64), q)
        mask = np.gcd.outer(g_aq, np.arange(q, dtype=np.int64)) == 1
        aa, bb = np.nonzero(mask)
        out.extend(ReducedRational(q, int(a), int(b)) for a, b in zip(aa, bb))
    return out


def shell_size(s: int) -> int:
    """Number of reduced triples in shell s (Jordan totient sum)."""
    total = 0
    for q in range(2 ** (s - 1), 2 ** s):
        j2 = q * q
        qq = q
        p = 2
        while p * p <= qq:
            if qq % p == 0:
                j2 -= j2 // (p * p)
                while qq % p == 0:
                    qq //= p
            p += 1
        if qq > 1:
            j2 -= j2 // (qq * qq)
        total += j2
    return total


def gauss_sum(r: ReducedRational) -> complex:
    """Direct O(Q) summation of the normalized complete Gauss sum."""
    q = r.Q
    n = np.arange(q, dtype=np.int64)
    phase = (r.A * ((n * n) % q) - r.B * n) % q
    return complex(np.exp(2j * np.pi * phase / q).sum() / q)


def gauss_rows(A, Q: int) -> np.ndarray:
    """S(a/Q, B/Q) for every a in A (rows) and every B in [0, Q) (columns).

    The DFT over B is exactly the defining sum: row[B] =
    (1/Q) sum_r e(a r^2/Q) e(-B r/Q).  The phases e(a r^2/Q) are gathered
    from one table of Q-th roots of unity and every row is transformed in
    one batched FFT.
    """
    n = np.arange(Q, dtype=np.int64)
    roots = np.exp(2j * np.pi * n / Q)
    a = np.asarray(A, dtype=np.int64).reshape(-1, 1)
    return sfft.fft(roots[(a * ((n * n) % Q)) % Q], axis=1) / Q


def gauss_row(A: int, Q: int) -> np.ndarray:
    """S(A/Q, B/Q) for every B in [0, Q) at once: one row of gauss_rows."""
    return gauss_rows([A], Q)[0]


def square_class_reps(Q: int) -> list[int]:
    """Representatives of units mod Q modulo multiplication by unit squares.

    |S(A/Q, B/Q)| restricted to a row A is invariant (as a multiset over
    B) under A -> A u^2, so Gauss-sum maxima only need one A per class.
    """
    if Q == 1:
        return [0]
    n = np.arange(Q, dtype=np.int64)
    unit_mask = np.gcd(n, Q) == 1
    units = n[unit_mask]
    squares = np.unique((units * units) % Q)
    covered = np.zeros(Q, dtype=bool)
    reps = []
    for u in units:
        if not covered[u]:
            reps.append(int(u))
            covered[(u * squares) % Q] = True
    return reps


def gauss_decay_scan(qmax: int) -> dict:
    """max over all reduced triples with Q <= qmax of |S| * Q**DECAY_EXPONENT.

    Rows are restricted to unit square-class representatives of A (exact
    symmetry) and to gcd(A, Q) = 1 (S vanishes identically otherwise --
    both facts are verified against direct summation in the tests).
    Returns the max, its argmax triple, and the per-Q max |S| table.
    """
    per_q = np.zeros(qmax + 1)
    arg = (1, 0, 0)
    per_q[1] = 1.0
    best = 1.0
    for q in range(2, qmax + 1):
        reps = square_class_reps(q)
        mods = np.abs(gauss_rows(reps, q))
        i = int(np.argmax(mods))
        per_q[q] = mods.flat[i]
        val = per_q[q] * q ** DECAY_EXPONENT
        if val > best:
            best = float(val)
            arg = (q, reps[i // q], i % q)
    return {
        "qmax": qmax,
        "exponent": DECAY_EXPONENT,
        "max_scaled": best,
        "argmax": {"Q": arg[0], "A": arg[1], "B": arg[2]},
        "per_q_max_abs": per_q,
    }


def odd_q_modulus_deviation(qmax: int = 999) -> dict:
    """max | |S| - Q^{-1/2} | over odd Q <= qmax, gcd(A, Q) = 1, all B."""
    worst = 0.0
    arg = None
    for q in range(1, qmax + 1, 2):
        units = np.nonzero(np.gcd(np.arange(q, dtype=np.int64), q) == 1)[0]
        dev = np.abs(np.abs(gauss_rows(units, q)) - q ** -0.5)
        i = int(np.argmax(dev))
        if dev.flat[i] > worst:
            worst = float(dev.flat[i])
            arg = (q, int(units[i // q]), int(i % q))
    return {"qmax": qmax, "max_deviation": worst, "argmax": arg}


# ---------------------------------------------------------------------------
# major boxes
# ---------------------------------------------------------------------------

def _check_epsilon(epsilon: float):
    if not 0.0 < epsilon < 1.0 / 7.0:
        raise ValueError(f"epsilon must lie in (0, 1/7), got {epsilon}")


def _half_widths(j: int, epsilon: float) -> tuple[float, float]:
    """(lambda, beta) half-widths 2**((eps-2)j), 2**((eps-1)j) of a major box."""
    return 2.0 ** ((epsilon - 2.0) * j), 2.0 ** ((epsilon - 1.0) * j)


def _collected_qmax(j: int, epsilon: float) -> int:
    """Largest denominator of the collected box family Q <= 2**(6 eps j)."""
    return int(2.0 ** (6.0 * epsilon * j) + 1e-9)


@dataclass(frozen=True)
class MajorBox:
    """Box at (A/Q, B/Q) with half-widths 2**((eps-2)j), 2**((eps-1)j)."""

    center: ReducedRational
    j: int
    epsilon: float

    def __post_init__(self):
        _check_epsilon(self.epsilon)

    def contains(self, lam: float, beta: float) -> bool:
        wl, wb = _half_widths(self.j, self.epsilon)
        dl = torus_dist(lam - self.center.A / self.center.Q)
        db = torus_dist(beta - self.center.B / self.center.Q)
        return bool(dl <= wl and db <= wb)


def _farey(qmax: int):
    """Reduced fractions a/q in [0, 1) with q <= qmax, ascending."""
    a, b, c, d = 0, 1, 1, qmax
    yield 0, 1
    while c < qmax:
        k = (qmax + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        if not (a == 1 and b == 1):
            yield a, b


def _beta_centers(q: int, qmax: int):
    """All beta centers B/(q m) of boxes whose lambda center is a/q.

    Boxes with lambda center a/q are (a m, B, q m) for m <= qmax // q with
    gcd(B, m) = 1 (gcd(am, qm) = m since gcd(a, q) = 1), so the centers do
    not depend on a.  Returns sorted values with their (m, B) labels.
    """
    kmax = qmax // q
    vals = []
    labels = []
    for m in range(1, kmax + 1):
        qm = q * m
        b = np.arange(qm, dtype=np.int64)
        if m > 1:
            mask = np.gcd(b % m, m) == 1
            b = b[mask]
        vals.append(b / qm)
        labels.append(np.stack([np.full(len(b), m, dtype=np.int64), b], axis=1))
    v = np.concatenate(vals)
    lab = np.concatenate(labels, axis=0)
    order = np.argsort(v, kind="stable")
    return v[order], lab[order]


def find_box_overlaps(j: int, epsilon: float, qmax: int | None = None) -> dict:
    """Scan every pair of distinct boxes with Q <= 2**(6 eps j) for overlap.

    Two closed boxes overlap iff their lambda-centers are within the sum
    of lambda half-widths AND likewise in beta (torus metric).  Distinct
    triples have distinct center pairs, so the scan is complete if it
    checks (a) adjacent gaps between distinct lambda-center values
    against 2 w_lambda, and (b) within each lambda-center value, adjacent
    beta-center gaps against 2 w_beta.  Witness pairs are reported as
    ((Q, A, B), (Q', A', B')), at most MAX_WITNESSES of them.
    """
    _check_epsilon(epsilon)
    if qmax is None:
        qmax = _collected_qmax(j, epsilon)
    w_lam, w_beta = _half_widths(j, epsilon)
    witnesses = []
    n_overlapping_adjacent = 0
    fracs = list(_farey(qmax))
    vals = np.array([a / q for a, q in fracs])
    # cross-center lambda gaps (torus): adjacent plus the wrap pair
    gaps = np.diff(np.append(vals, 1.0))
    min_lambda_gap = float(gaps.min()) if len(gaps) else 1.0
    cross_pairs = []
    if min_lambda_gap <= 2.0 * w_lam:
        idx = np.nonzero(gaps <= 2.0 * w_lam)[0]
        cross_pairs = [(fracs[i], fracs[(i + 1) % len(fracs)]) for i in idx]
    # same lambda-center beta scan
    min_beta_gap = math.inf
    for a, q in fracs:
        if qmax // q < 2:
            # single multiple: beta centers are B/q, adjacent gap exactly 1/q
            gap = 1.0 / q
            if gap < min_beta_gap:
                min_beta_gap = gap
            if gap <= 2.0 * w_beta and q >= 2:
                n_overlapping_adjacent += q
                if len(witnesses) < MAX_WITNESSES:
                    witnesses.append(((q, a, 0), (q, a, 1)))
            continue
        v, lab = _beta_centers(q, qmax)
        dv = np.diff(np.append(v, v[0] + 1.0))
        bad = np.nonzero(dv <= 2.0 * w_beta)[0]
        gmin = float(dv.min())
        if gmin < min_beta_gap:
            min_beta_gap = gmin
        n_overlapping_adjacent += len(bad)
        for i in bad[: max(0, MAX_WITNESSES - len(witnesses))]:
            m1, b1 = lab[i]
            m2, b2 = lab[(i + 1) % len(v)]
            witnesses.append(
                ((int(q * m1), int(a * m1), int(b1)),
                 (int(q * m2), int(a * m2), int(b2)))
            )
    # cross-center pairs: only overlap if beta families also come close
    for (a1, q1), (a2, q2) in cross_pairs:
        v1, lab1 = _beta_centers(q1, qmax)
        v2, lab2 = _beta_centers(q2, qmax)
        i2 = np.searchsorted(v2, v1)
        for i1, i in enumerate(i2):
            for cand in (i - 1, i % len(v2)):
                d = abs(v1[i1] - v2[cand % len(v2)])
                d = min(d, 1.0 - d)
                if d <= 2.0 * w_beta:
                    n_overlapping_adjacent += 1
                    if len(witnesses) < MAX_WITNESSES:
                        m1, b1 = lab1[i1]
                        m2, b2 = lab2[cand % len(v2)]
                        witnesses.append(
                            ((int(q1 * m1), int(a1 * m1), int(b1)),
                             (int(q2 * m2), int(a2 * m2), int(b2)))
                        )
    return {
        "j": j,
        "epsilon": epsilon,
        "qmax": qmax,
        "n_lambda_centers": len(fracs),
        "half_width_lambda": w_lam,
        "half_width_beta": w_beta,
        "min_lambda_gap": min_lambda_gap,
        "min_beta_gap_same_center": min_beta_gap,
        "n_overlapping_adjacent_pairs": int(n_overlapping_adjacent),
        "witnesses": witnesses[:MAX_WITNESSES],
        "disjoint": n_overlapping_adjacent == 0,
    }
