"""Modulation sets and arithmetic covering certificates.

Cantor-like sets { sum_{j in J} 2**(-D**j) : J subset of {1..depth} }
are kept as exact rationals: float64 cannot even hold these sums (the
binary digits of a single point can span hundreds of bits), so
distinctness, coverings, and denominator bounds are all certified with
integer arithmetic.  Operator probes consume the round-to-nearest float
images via ``LambdaSet.floats``.

A covering certificate records intervals centered at rationals num/den
together with the constant ``C_lambda`` and exponent ``d`` such that
every center satisfies den <= C_lambda * t**(-d).  For Cantor sets the
intervals sit at truncations of the defining sum; their exact radius
exceeds half the dyadic label scale 2**(1 - D**(n+1)) by the sub-leading
tail, so the certificate carries the achieved interval length (as exact
data) rather than the label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "LambdaSet",
    "Interval",
    "CoveringCertificate",
    "CoverError",
    "cantor_set",
    "cover",
    "verify_certificate",
    "dimension_estimate",
    "lambda_set_to_json",
    "lambda_set_from_json",
    "certificate_to_json",
]

POINT_CAP = 2 ** 20
# bits held by a Cantor set's numerators: 2**depth points over 2**(D**depth)
DIGIT_CAP = 2 ** 24
DEFAULT_DEN_CAP = 10 ** 6


class CoverError(ValueError):
    """Raised when no valid covering exists under the given constraints."""


@dataclass(frozen=True)
class LambdaSet:
    """Sorted, deduplicated finite modulation set in [0, 1]."""

    points: tuple
    provenance: tuple  # ("cantor", D, depth) or ("explicit",)

    def __post_init__(self):
        pts = self.points
        if any(not (0 <= p <= 1) for p in pts):
            raise ValueError("all points must lie in [0, 1]")
        if list(pts) != sorted(set(pts)):
            raise ValueError("points must be sorted and deduplicated")

    @property
    def floats(self) -> np.ndarray:
        """Round-to-nearest float64 images (may collide; documented)."""
        return np.array([float(p) for p in self.points], dtype=float)

    def __len__(self):
        return len(self.points)


def cantor_set(D: int, depth: int) -> LambdaSet:
    """All subset sums of 2**(-D**j), j in {1..depth}; exactly 2**depth points."""
    if D < 2:
        raise ValueError(f"D must be >= 2, got {D}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if 2 ** depth > POINT_CAP:
        raise ValueError(f"2^depth = {2**depth} exceeds cap {POINT_CAP}")
    bits = 2 ** depth * D ** depth
    if bits > DIGIT_CAP:
        raise ValueError(f"2^depth * D^depth = {bits} numerator bits exceeds "
                         f"cap {DIGIT_CAP}")
    top = D ** depth
    nums = [0]
    for j in range(1, depth + 1):
        step = 1 << (top - D ** j)
        nums = nums + [n + step for n in nums]
    den = 1 << top
    pts = tuple(sorted(Fraction(n, den) for n in nums))
    return LambdaSet(points=pts, provenance=("cantor", D, depth))


@dataclass(frozen=True)
class Interval:
    """Closed interval centered at the rational num/den."""

    num: int
    den: int
    half_width: Fraction

    @property
    def center(self) -> Fraction:
        return Fraction(self.num, self.den)

    def contains(self, p) -> bool:
        return abs(Fraction(p) - self.center) <= self.half_width


@dataclass(frozen=True)
class CoveringCertificate:
    t: Fraction
    t_requested: Fraction
    intervals: tuple
    C_lambda: float
    d: float

    @property
    def N(self) -> int:
        return len(self.intervals)

    @property
    def max_denominator(self) -> int:
        return max(iv.den for iv in self.intervals)


def _cantor_tail(D: int, depth: int, n: int) -> Fraction:
    """Exact max distance of a point to its level-n truncation."""
    return sum((Fraction(1, 2 ** (D ** j)) for j in range(n + 1, depth + 1)),
               Fraction(0))


def cover(lam_set: LambdaSet, t, den_cap: int = DEFAULT_DEN_CAP) -> CoveringCertificate:
    """Cover the set by intervals at rational centers.

    For Cantor provenance the requested t is snapped down to the dyadic
    family 2**(1 - D**(n+1)) and the intervals sit at the level-n
    truncations with their exact radius; the certificate's ``t`` is the
    achieved interval length, which exceeds the label by the sub-leading
    tail when the request hits a label exactly.  For explicit sets the
    centers are continued-fraction approximants under ``den_cap``.
    """
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    if lam_set.provenance[0] == "cantor":
        return _cover_cantor(lam_set, t)
    return _cover_explicit(lam_set, t, den_cap)


def _cover_cantor(lam_set: LambdaSet, t: Fraction) -> CoveringCertificate:
    _, D, depth = lam_set.provenance
    # largest label scale 2^(1 - D^(n+1)) that is <= t, i.e. smallest valid n
    n = 1
    while Fraction(1, 2 ** (D ** (n + 1) - 1)) > t:
        n += 1
        if n > depth:
            break
    n = min(n, depth)
    radius = _cantor_tail(D, depth, n)
    den = 1 << (D ** n)
    seen = {}
    mask_exp = D ** depth - D ** n  # truncation: clear digits below level n
    for p in lam_set.points:
        scaled = p.numerator * ((1 << (D ** depth)) // p.denominator)
        key = scaled >> mask_exp
        seen.setdefault(key, None)
    intervals = tuple(
        Interval(num=k, den=den, half_width=radius) for k in sorted(seen)
    )
    # the certificate carries the exact achieved interval length; when the
    # request hits a label scale 2^(1 - D^(n+1)) exactly this exceeds the
    # request by the sub-leading tail, and for requests between labels it
    # is smaller, which is what keeps the denominator bound sharp
    achieved = 2 * radius if radius > 0 else t
    cert = CoveringCertificate(
        t=achieved, t_requested=t, intervals=intervals,
        C_lambda=2.0, d=1.0 / D,
    )
    _verify_or_raise(lam_set, cert)
    return cert


def _cover_explicit(lam_set: LambdaSet, t: Fraction,
                    den_cap: int) -> CoveringCertificate:
    half = t / 2
    centers = {}
    for p in lam_set.points:
        c = Fraction(p).limit_denominator(den_cap)
        if abs(c - Fraction(p)) > half:
            raise CoverError(
                f"point {float(p)} has no rational approximation within "
                f"t/2 = {float(half)} under denominator cap {den_cap}"
            )
        centers.setdefault(c, None)
    intervals = tuple(
        Interval(num=c.numerator, den=c.denominator, half_width=half)
        for c in sorted(centers)
    )
    qmax = max(iv.den for iv in intervals)
    tf = float(t)
    d_fit = 0.0
    if qmax > 1 and tf < 1:
        d_fit = math.ceil(100 * (math.log(qmax) / math.log(1 / tf))) / 100
    c_lam = max(1.0, max(iv.den * tf ** d_fit for iv in intervals))
    cert = CoveringCertificate(
        t=t, t_requested=t, intervals=intervals, C_lambda=c_lam, d=d_fit,
    )
    _verify_or_raise(lam_set, cert)
    return cert


def verify_certificate(lam_set: LambdaSet, cert: CoveringCertificate) -> dict:
    """Brute-force re-verification, independent of construction.

    Checks every point against every interval with exact arithmetic and
    re-derives the denominator bound.
    """
    uncovered = []
    for p in lam_set.points:
        if not any(iv.contains(p) for iv in cert.intervals):
            uncovered.append(p)
    den_bound = cert.C_lambda * float(cert.t) ** (-cert.d)
    bad_dens = [iv.den for iv in cert.intervals if iv.den > den_bound + 1e-9]
    too_long = [iv for iv in cert.intervals if 2 * iv.half_width > cert.t]
    return {
        "ok": not (uncovered or bad_dens or too_long),
        "n_points": len(lam_set.points),
        "N": cert.N,
        "uncovered": [float(p) for p in uncovered[:4]],
        "bad_denominators": bad_dens[:4],
        "overlong_intervals": len(too_long),
        "den_bound": den_bound,
        "max_denominator": cert.max_denominator,
    }


def _verify_or_raise(lam_set: LambdaSet, cert: CoveringCertificate):
    rep = verify_certificate(lam_set, cert)
    if not rep["ok"]:
        raise CoverError(f"certificate failed verification: {rep}")


def dimension_estimate(lam_set: LambdaSet, t_list, den_cap: int = DEFAULT_DEN_CAP) -> dict:
    """Box-counting and denominator exponents from covers at each t.

    Requires at least 3 values of t spanning at least 2 decades.  Slopes
    are least-squares fits of log N and log(max denominator) against
    log(1/t) for the achieved certificate scales.
    """
    ts = sorted((Fraction(x) for x in t_list), reverse=True)
    if len(ts) < 3:
        raise ValueError("need at least 3 values of t")
    if ts[0] / ts[-1] < 100:
        raise ValueError("t values must span at least 2 decades")
    rows = []
    for t in ts:
        cert = cover(lam_set, t, den_cap=den_cap)
        rows.append({
            "t_requested": float(t),
            "t": float(cert.t),
            "N": cert.N,
            "max_denominator": cert.max_denominator,
        })
    logs = np.log([1.0 / r["t"] for r in rows])
    n_vals = np.array([r["N"] for r in rows], dtype=float)
    q_vals = np.array([r["max_denominator"] for r in rows], dtype=float)
    degenerate = bool(np.all(n_vals == n_vals[0]))
    box_exp = 0.0 if degenerate else float(np.polyfit(logs, np.log(n_vals), 1)[0])
    den_exp = (0.0 if np.all(q_vals == q_vals[0])
               else float(np.polyfit(logs, np.log(q_vals), 1)[0]))
    monotone = all(rows[i]["N"] <= rows[i + 1]["N"] for i in range(len(rows) - 1))
    return {
        "provenance": list(lam_set.provenance),
        "rows": rows,
        "box_exponent": box_exp,
        "denominator_exponent": den_exp,
        "degenerate_fit": degenerate,
        "N_monotone_in_t": monotone,
    }


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _fraction_to_decimal(p: Fraction) -> str:
    """Exact decimal string when the denominator is of the form 2^a 5^b."""
    den = p.denominator
    a = b = 0
    d = den
    while d % 2 == 0:
        d //= 2
        a += 1
    while d % 5 == 0:
        d //= 5
        b += 1
    if d != 1:
        return repr(float(p))
    shift = max(a, b)
    digits = p.numerator * 10 ** shift // den
    s = str(digits).rjust(shift + 1, "0")
    if shift == 0:
        return s
    return (s[:-shift] + "." + s[-shift:]).rstrip("0").rstrip(".") or "0"


def lambda_set_to_json(lam_set: LambdaSet) -> str:
    """JSON array of decimal strings; parsing to float is round-to-nearest."""
    return json.dumps([_fraction_to_decimal(Fraction(p)) for p in lam_set.points])


def lambda_set_from_json(text: str) -> LambdaSet:
    vals = json.loads(text)
    pts = tuple(sorted({Fraction(v) for v in vals}))
    return LambdaSet(points=pts, provenance=("explicit",))


def certificate_to_json(cert: CoveringCertificate) -> str:
    return json.dumps({
        "t": float(cert.t),
        "t_requested": float(cert.t_requested),
        "N": cert.N,
        "C_lambda": cert.C_lambda,
        "d": cert.d,
        "intervals": [
            {"num": iv.num, "den": iv.den, "center": float(iv.center),
             "half_width": float(iv.half_width)}
            for iv in cert.intervals
        ],
    }, indent=2, sort_keys=True)
