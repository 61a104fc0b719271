"""Reduced rationals on the torus, complete Gauss sums, major boxes.

A reduced triple (A, B, Q) has 0 <= A, B < Q and gcd(A, B, Q) = 1; it
names the rational pair (A/Q, B/Q) on the 2-torus uniquely.  The
normalized complete Gauss sum is

    S(A/Q, B/Q) = (1/Q) * sum_{r=0}^{Q-1} e(A r^2 / Q - B r / Q).

``gauss_sum`` is the direct O(Q) summation and doubles as the oracle for
the batched path: ``gauss_rows`` evaluates many A against every B at
once (the DFT over B is the same sum evaluated jointly, with the phases
gathered from one table of Q-th roots of unity).  The odd-Q modulus law
and the decay sweep both run on it, and both quotient by the exact
unit-orbit symmetry S(A u^2, B u, Q) = S(A, B, Q): they read one row per
unit square class (``square_class_reps``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

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


def _frac1(x):
    """x mod 1 in [0, 1), bit-for-bit equal to ``x % 1.0`` for every float64.

    Both round the exact remainder once (x - floor(x) is exact for x >= 0
    and is the one rounding of 1 - frac(|x|) for x < 0; zeros come out +0),
    but floor and a subtraction cost a fraction of numpy's fmod-based
    remainder.
    """
    return x - np.floor(x)


def torus_delta(x) -> np.ndarray | float:
    """Signed representative of x mod 1 in [-1/2, 1/2)."""
    return _frac1(np.asarray(x, dtype=float) + 0.5) - 0.5


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


def _reduced_pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) with 0 <= a, b < q and gcd(a, b, q) = 1, row-major."""
    n = np.arange(q, dtype=np.int64)
    return np.nonzero(np.gcd.outer(np.gcd(n, q), n) == 1)


def enumerate_shell(s: int) -> list[ReducedRational]:
    """All reduced triples with 2**(s-1) <= Q < 2**s, lexicographic in (Q, A, B)."""
    if s < 1:
        raise ValueError(f"shell index must be >= 1, got {s}")
    if 2 ** s > SHELL_CAP:
        raise ValueError(f"shell 2^{s} exceeds cap {SHELL_CAP}")
    out: list[ReducedRational] = []
    for q in range(2 ** (s - 1), 2 ** s):
        aa, bb = _reduced_pairs(q)
        out.extend(ReducedRational(q, int(a), int(b)) for a, b in zip(aa, bb))
    return out


def _prime_factors(q: int) -> list[int]:
    """The distinct primes dividing q, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            primes.append(p)
            while q % p == 0:
                q //= p
        p += 1
    if q > 1:
        primes.append(q)
    return primes


def shell_size(s: int) -> int:
    """Number of reduced triples in shell s (Jordan totient sum)."""
    total = 0
    for q in range(2 ** (s - 1), 2 ** s):
        j2 = q * q
        for p in _prime_factors(q):
            j2 -= j2 // (p * p)
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
    return np.fft.fft(roots[(a * ((n * n) % Q)) % Q], axis=1) / Q


def gauss_row(A: int, Q: int) -> np.ndarray:
    """S(A/Q, B/Q) for every B in [0, Q) at once: one row of gauss_rows."""
    return gauss_rows([A], Q)[0]


def square_class_reps(Q: int) -> list[int]:
    """Representatives of units mod Q modulo multiplication by unit squares.

    |S(A/Q, B/Q)| restricted to a row A is invariant (as a multiset over
    B) under A -> A u^2, so Gauss-sum maxima only need one A per class.
    Each representative is the smallest unit of its class, in increasing
    order.

    A unit's class is its key under the quadratic characters: for each odd
    prime p | Q whether it is a residue mod p (Euler's criterion), and its
    residue mod 4 when 4 | Q, mod 8 when 8 | Q.  So there are
    2^(#odd primes) * (1, 2 or 4) classes, and the walk over u = 1, 2, ...
    stops at the last new key.
    """
    if Q == 1:
        return [0]
    odd = [p for p in _prime_factors(Q) if p > 2]
    two = 8 if Q % 8 == 0 else 4 if Q % 4 == 0 else 1
    n_classes = 2 ** len(odd) * max(1, two // 2)
    seen = set()
    reps = []
    u = 0
    while len(reps) < n_classes:
        u += 1
        if gcd(u, Q) != 1:
            continue
        key = (u % two, *[pow(u, (p - 1) // 2, p) for p in odd])
        if key not in seen:
            seen.add(key)
            reps.append(u)
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
    """max | |S| - Q^{-1/2} | over odd Q <= qmax, gcd(A, Q) = 1, all B.

    The row of A u^2 is the row of A with B permuted (B -> B u), so one row
    per unit square class covers every unit; the argmax A is the class
    representative.
    """
    worst = 0.0
    arg = None
    for q in range(1, qmax + 1, 2):
        reps = square_class_reps(q)
        dev = np.abs(np.abs(gauss_rows(reps, q)) - q ** -0.5)
        i = int(np.argmax(dev))
        if dev.flat[i] > worst:
            worst = float(dev.flat[i])
            arg = (q, reps[i // q], i % q)
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


def _farey(qmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced fractions a/q in [0, 1) with q <= qmax, ascending, as arrays
    (a, q, a/q).  int64 true division rounds exactly as Python's ``a / q``,
    and distinct fractions differ by at least 1/qmax**2, so the float order
    is the exact order."""
    q = np.repeat(np.arange(1, qmax + 1, dtype=np.int64),
                  np.arange(1, qmax + 1))
    a = np.arange(len(q), dtype=np.int64) - q * (q - 1) // 2
    keep = np.gcd(a, q) == 1
    a, q = a[keep], q[keep]
    vals = a / q
    order = np.argsort(vals)
    return a[order], q[order], vals[order]


def _beta_centers(q: int, qmax: int):
    """All beta centers B/(q m) of boxes whose lambda center is a/q.

    Boxes with lambda center a/q are (a m, B, q m) for m <= qmax // q with
    gcd(B, m) = 1 (gcd(am, qm) = m since gcd(a, q) = 1), so the centers do
    not depend on a.  Returns sorted values with their (m, B) labels, in
    one array pass over the concatenated ranges B in [0, q m), m ascending.
    """
    mult = np.arange(1, qmax // q + 1, dtype=np.int64)
    sizes = q * mult
    m = np.repeat(mult, sizes)
    b = np.arange(len(m), dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes,
                                                      sizes)
    keep = np.gcd(b % m, m) == 1
    m, b = m[keep], b[keep]
    v = b / (q * m)
    order = np.argsort(v, kind="stable")
    return v[order], np.stack([m, b], axis=1)[order]


def _same_center_summary(q: int, qmax: int, w_beta: float):
    """Beta-gap summary shared by every lambda center a/q: the minimum
    adjacent (torus) gap, the number of adjacent pairs within 2 w_beta, and
    the (m, B) labels of the first MAX_WITNESSES such pairs."""
    if qmax // q < 2:
        # single multiple: beta centers are B/q, adjacent gap exactly 1/q
        gap = 1.0 / q
        if gap <= 2.0 * w_beta and q >= 2:
            return gap, q, [((1, 0), (1, 1))]
        return gap, 0, []
    v, lab = _beta_centers(q, qmax)
    dv = np.diff(np.append(v, v[0] + 1.0))
    bad = np.nonzero(dv <= 2.0 * w_beta)[0]
    first = bad[:MAX_WITNESSES]
    pairs = list(zip(lab[first].tolist(), lab[(first + 1) % len(v)].tolist()))
    return float(dv.min()), len(bad), pairs


def find_box_overlaps(j: int, epsilon: float, qmax: int | None = None) -> dict:
    """Scan every pair of distinct boxes with Q <= 2**(6 eps j) for overlap.

    Two closed boxes overlap iff their lambda-centers are within the sum
    of lambda half-widths AND likewise in beta (torus metric).  Distinct
    triples have distinct center pairs, so the scan is complete if it
    checks (a) adjacent gaps between distinct lambda-center values
    against 2 w_lambda, and (b) within each lambda-center value, adjacent
    beta-center gaps against 2 w_beta.  The beta centers over a/q do not
    depend on a, so (b) is summarized once per denominator q and counted
    once per fraction.  Witness pairs are reported as
    ((Q, A, B), (Q', A', B')), at most MAX_WITNESSES of them: same-center
    pairs first, in Farey order of their lambda center.
    """
    _check_epsilon(epsilon)
    if qmax is None:
        qmax = _collected_qmax(j, epsilon)
    w_lam, w_beta = _half_widths(j, epsilon)
    a_f, q_f, vals = _farey(qmax)
    # cross-center lambda gaps (torus): adjacent plus the wrap pair
    gaps = np.diff(np.append(vals, 1.0))
    min_lambda_gap = float(gaps.min()) if len(gaps) else 1.0
    # same lambda-center beta scan: one summary per q, counted per a/q
    summaries = [_same_center_summary(q, qmax, w_beta)
                 for q in range(1, qmax + 1)]
    min_beta_gap = min(gap for gap, _, _ in summaries)
    pairs_per_q = np.array([0] + [n for _, n, _ in summaries], dtype=np.int64)
    n_overlapping_adjacent = int(
        np.bincount(q_f, minlength=qmax + 1) @ pairs_per_q)
    witnesses = []
    for i in np.nonzero(pairs_per_q[q_f])[0]:
        if len(witnesses) >= MAX_WITNESSES:
            break
        a, q = int(a_f[i]), int(q_f[i])
        for (m1, b1), (m2, b2) in summaries[q - 1][2]:
            witnesses.append(((q * m1, a * m1, b1), (q * m2, a * m2, b2)))
    del witnesses[MAX_WITNESSES:]
    # cross-center pairs: only overlap if beta families also come close
    for i in np.nonzero(gaps <= 2.0 * w_lam)[0]:
        k = (i + 1) % len(vals)
        a1, q1, a2, q2 = int(a_f[i]), int(q_f[i]), int(a_f[k]), int(q_f[k])
        v1, lab1 = _beta_centers(q1, qmax)
        v2, lab2 = _beta_centers(q2, qmax)
        i2 = np.searchsorted(v2, v1)
        cand = np.stack([(i2 - 1) % len(v2), i2 % len(v2)], axis=1)
        d = np.abs(v1[:, None] - v2[cand])
        hit1, hit2 = np.nonzero(np.minimum(d, 1.0 - d) <= 2.0 * w_beta)
        n_overlapping_adjacent += len(hit1)
        for i1, c in zip(hit1[:MAX_WITNESSES - len(witnesses)].tolist(),
                         cand[hit1, hit2].tolist()):
            (m1, b1), (m2, b2) = lab1[i1].tolist(), lab2[c].tolist()
            witnesses.append(((q1 * m1, a1 * m1, b1), (q2 * m2, a2 * m2, b2)))
    return {
        "j": j,
        "epsilon": epsilon,
        "qmax": qmax,
        "n_lambda_centers": len(vals),
        "half_width_lambda": w_lam,
        "half_width_beta": w_beta,
        "min_lambda_gap": min_lambda_gap,
        "min_beta_gap_same_center": min_beta_gap,
        "n_overlapping_adjacent_pairs": n_overlapping_adjacent,
        "witnesses": witnesses,
        "disjoint": n_overlapping_adjacent == 0,
    }
