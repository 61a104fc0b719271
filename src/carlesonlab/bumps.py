"""Smooth compactly supported bump functions and their dyadic rescalings.

Three fixed profiles are built from one mollified step:

* ``psi``     -- odd, supported on 1/4 <= |t| <= 1, chosen so that the
  rescalings ``2**-k * psi(2**-k * t)`` sum exactly to ``1/t``.
* ``chi``     -- even cutoff, 1 on [-1/10, 1/10], 0 outside [-1/5, 1/5].
* ``phi_hat`` -- even frequency plateau, 1 on [-1/8, 1/8], 0 outside
  [-1/4, 1/4].

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "smooth_step",
    "eta",
    "rho",
    "psi",
    "psi_k",
    "chi",
    "chi_s",
    "phi_hat",
]


def smooth_step(v):
    """C-infinity monotone step: 0 for v <= 0, 1 for v >= 1.

    Built from h(v) = exp(-1/v) via g = h(v) / (h(v) + h(1-v)).
    """
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    out = np.empty_like(v)
    lo = v <= 0.0
    hi = v >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    if np.any(mid):
        vm = v[mid]
        a = np.exp(-1.0 / vm)
        b = np.exp(-1.0 / (1.0 - vm))
        out[mid] = a / (a + b)
    return out[0] if scalar else out


def eta(t):
    """Mollified plateau: 1 on [-1/2, 1/2], 0 outside [-1, 1]."""
    return smooth_step(2.0 - 2.0 * np.abs(t))


def rho(t):
    """Even partition element eta(t) - eta(2t), supported on 1/4 <= |t| <= 1.

    The rescalings rho(2**-k * t) telescope to 1 for every t != 0.
    """
    return eta(t) - eta(2.0 * np.asarray(t, dtype=float))


def psi(t):
    """Odd profile rho(|t|)/t; the dyadic pieces of 1/t.

    |psi| <= 4 on its support (1/|t| <= 4 there).  The resolution
    identity sum_k 2**-k psi(2**-k t) = 1/t holds exactly because rho
    telescopes.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros_like(t)
    nz = t != 0.0
    out[nz] = rho(np.abs(t[nz])) / t[nz]
    return out[0] if scalar else out


def psi_k(k: int, t):
    """Dyadic rescaling 2**-k * psi(2**-k * t); support 2**(k-2) <= |t| <= 2**k."""
    s = 2.0 ** (-k)
    return s * psi(s * np.asarray(t, dtype=float))


def chi(t):
    """Even cutoff: 1 for |t| <= 1/10, 0 for |t| >= 1/5, monotone between."""
    return smooth_step((0.2 - np.abs(np.asarray(t, dtype=float))) / 0.1)


def chi_s(s: int, t):
    """Shrunk cutoff chi(10**s * t); plateau |t| <= 10**-(s+1)."""
    if s < 1:
        raise ValueError(f"shell index s must be >= 1, got {s}")
    return chi((10.0 ** s) * np.asarray(t, dtype=float))


def phi_hat(xi):
    """Frequency plateau: 1 for |xi| <= 1/8, 0 for |xi| >= 1/4."""
    return smooth_step((0.25 - np.abs(np.asarray(xi, dtype=float))) / 0.125)
