"""The package's FFT backend, numpy.fft, against scipy.fft as an oracle.

The package transforms with numpy.fft only, and writes every artifact
bit for bit as it did with scipy.fft.  That equality is measured, not
guaranteed: both wrap pocketfft, and with numpy 2.4 and scipy 1.17 on
x86-64 Linux every case below is bit-equal; another version or platform
may differ in the last bit.  The cases are the transforms the package
makes: complex rows along either axis, batched and zero-padded, written
to a fresh array or in place, and ``m_j_grid``'s inverse of a real
table.  numpy has no ``next_fast_len``, so the convolution lengths come
from ``operators._next_fast_len``, which is held to scipy's.

The psi-hat table is the one transform the package does not make: it
ships as package data, ``_psi_hat.npy``, and this module holds the file
to the 2^21-point scipy.fft build bit for bit, the only place that build
runs.  Run as a script, ``PYTHONPATH=src python tests/test_fft_backend.py``,
it writes the file from that build.  Fresh interpreters check that
importing the package loads no scipy and no table.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from itertools import count, product
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft

from carlesonlab.bumps import psi
from carlesonlab.multiplier import _support, m_j_grid
from carlesonlab.operators import SIZE_CAP, _fast_lengths, _next_fast_len
from carlesonlab.oscillatory import (_PSI_DT_LOG2, _PSI_HAT_FLOOR,
                                     _PSI_PAD_LOG2, _PsiHatTable,
                                     _psi_hat_table)

SRC = Path(__file__).resolve().parents[1] / "src"


def _complex_rows(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestComplexTransforms:
    # lengths: powers of two up to 2^18, 11-smooth convolution lengths and
    # a prime (Bluestein's path)
    @pytest.mark.parametrize("name", ["fft", "ifft"])
    @pytest.mark.parametrize("shape, axis", [
        ((5, 4096), 1), ((5, 4096), -1), ((4096, 5), 0), ((1, 2 ** 18), -1),
        ((40, 8192), -1), ((3, 2310), 1), ((1021, 2), 0), ((2 ** 15,), -1)])
    @pytest.mark.parametrize("pad", [None, 7])
    def test_bit_equal(self, name, shape, axis, pad):
        x = _complex_rows(shape, seed=sum(shape))
        n = None if pad is None else shape[axis] + pad
        ref = getattr(sfft, name)(x, n, axis=axis)
        assert getattr(np.fft, name)(x, n, axis=axis).tobytes() \
            == ref.tobytes()
        out = np.empty(ref.shape, dtype=complex)
        getattr(np.fft, name)(x, n, axis=axis, out=out)
        assert out.tobytes() == ref.tobytes()
        if n is None:
            getattr(np.fft, name)(x, axis=axis, out=x)
            assert x.tobytes() == ref.tobytes()


def _psi_hat_fft() -> np.ndarray:
    """The psi-hat table's transform (``_PsiHatTable``'s docstring): the
    imaginary part of all 2^20 entries at u >= 0, by scipy.fft."""
    dt = 2.0 ** _PSI_DT_LOG2
    n = int(round(2.0 / dt))
    nfft = 2 ** _PSI_PAD_LOG2
    idx = np.arange(n) - n // 2
    buf = np.zeros(nfft, dtype=complex)
    buf[idx % nfft] = psi(idx * dt)
    return (sfft.fft(buf) * dt).imag[:nfft // 2]


def _shipped_entries(full: np.ndarray) -> np.ndarray:
    """The entries of ``full`` the package ships: those up to the last one
    above the floor, and the 8 of the interpolation stencil past it."""
    cut = np.nonzero(np.abs(full) > _PSI_HAT_FLOOR)[0][-1] + 1
    return full[:cut + 8]


def test_psi_hat_table():
    # the shipped file is the transform's first cut + 8 entries bit for
    # bit, and every entry it leaves out is at most the floor
    full = _psi_hat_fft()
    tab = _psi_hat_table()
    n = len(tab.imag)
    assert tab.imag.tobytes() == full[:n].tobytes()
    assert np.abs(full[n:]).max() <= _PSI_HAT_FLOOR
    assert n == len(_shipped_entries(full))
    assert tab.u_cut == (n - 8) * tab.du


def test_psi_hat_table_loads_without_a_transform():
    tracemalloc.start()
    try:
        _PsiHatTable()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_psi_hat_table_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    conf = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    assert conf["tool"]["setuptools"]["package-data"]["carlesonlab"] \
        == ["_psi_hat.npy"]
    assert (resources.files("carlesonlab") / "_psi_hat.npy").is_file()


@pytest.mark.parametrize("j, G", [(4, 64), (9, 1), (9, 2), (9, 128),
                                  (13, 256), (17, 512)])
def test_m_j_grid_real_table(j, G):
    # the complex inverse of the same table differs in the last bit; the
    # real-input path of scipy's inverse is the reference
    m, w = _support(j)
    a = (m * m) % G
    idx = np.concatenate([a * G + m % G, a * G + (-m) % G])
    t = np.bincount(idx, weights=np.concatenate([w, -w]),
                    minlength=G * G).reshape(G, G)
    ref = sfft.fft(sfft.ifft(t, axis=0) * G, axis=1)
    assert m_j_grid(j, G).tobytes() == ref.tobytes()


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestNextFastLen:
    def test_every_length_to_2_17(self):
        assert [_next_fast_len(n) for n in range(1, 2 ** 17 + 1)] \
            == [sfft.next_fast_len(n) for n in range(1, 2 ** 17 + 1)]

    def test_structured_lengths_to_the_cap(self):
        powers = [[p ** e for e in range(25) if p ** e <= SIZE_CAP]
                  for p in (2, 3, 5, 7, 11)]
        smooth = sorted(n for n in map(math.prod, product(*powers))
                        if n <= SIZE_CAP)
        assert _fast_lengths() == smooth
        ns = {n + d for n in smooth for d in (-1, 0, 1)}
        ns |= {2 ** k + d for k in range(25) for d in (-1, 0, 1)}
        for k in range(2, 25):
            ns.add(next(filter(_is_prime, range(2 ** k - 1, 1, -1))))
            ns.add(next(filter(_is_prime, count(2 ** k + 1))))
        ns = sorted(n for n in ns if 1 <= n <= SIZE_CAP)
        assert [_next_fast_len(n) for n in ns] \
            == [sfft.next_fast_len(n) for n in ns]


def _after(statement: str, expr: str) -> str:
    """``expr``, printed after ``statement`` runs in a fresh interpreter
    that imports the package from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    code = (f"import sys\n{statement}\n"
            "assert carlesonlab.__file__.startswith(sys.argv[1])\n"
            f"print({expr})\n")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


_SCIPY_MODULES = ("sorted(m for m in sys.modules "
                  "if m.partition('.')[0] == 'scipy')")


class TestImport:
    def test_package_loads_no_scipy(self):
        assert _after("import carlesonlab, carlesonlab.cli",
                      _SCIPY_MODULES) == "[]"

    def test_the_check_sees_scipy(self):
        assert "'scipy.fft'" in _after("import carlesonlab, scipy.fft",
                                       _SCIPY_MODULES)

    def test_package_loads_no_psi_hat_table(self):
        assert _after("import carlesonlab, carlesonlab.cli",
                      "carlesonlab.oscillatory._psi_hat_table"
                      ".cache_info().currsize") == "0"


if __name__ == "__main__":
    # writes the shipped table from the transform above
    np.save(SRC / "carlesonlab" / "_psi_hat.npy",
            _shipped_entries(_psi_hat_fft()))
