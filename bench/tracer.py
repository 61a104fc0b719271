"""Span tracer that wraps carlesonlab's public functions from outside the package.

``Tracer.install`` replaces every module-level binding of each function in
``TRACED`` across ``carlesonlab`` and its submodules with a wrapper, so the
calls the library makes internally are seen as well as the calls the
benchmark makes: ``h_j`` is also bound in ``multiplier``, and ``h_row``,
``phi_hat`` and ``torus_delta`` are also bound in ``operators``.
``Tracer.uninstall`` puts the original function objects back.

Each call records one span: name, start, end, parent span and op id.  The
benchmark opens a root span per op (``bench.op``), so every span tree is one
op.  Spans stay in memory until ``save`` writes them out.  Work counts are
computed from the call arguments by the ``_note_*`` hooks, which run before
the span starts, so their cost lands in the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import zlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED = {
    "bumps": ("psi_k", "chi_s", "phi_hat"),
    "oscillatory": ("h_j", "h_row"),
    "arithmetic": ("torus_delta", "gauss_sum", "enumerate_shell", "gauss_row",
                   "square_class_reps", "odd_q_modulus_deviation",
                   "gauss_decay_scan", "find_box_overlaps"),
    "multiplier": ("m_j", "m_j_grid", "big_l_j", "decay_report"),
    "operators": ("kernel_taps", "carleson_max", "norm_probe",
                  "bourgain_growth_report", "oscillatory_growth_report",
                  "single_l_report"),
    "lambda_sets": ("cantor_set", "cover", "lambda_set_to_json",
                    "certificate_to_json"),
    "cli": ("main",),
}

ROOT_SPAN = "bench.op"
H_J_PATHS = ("table", "direct", "dual")     # span tags 1, 2, 3


def package_modules() -> list:
    """carlesonlab and every loaded carlesonlab.* module."""
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "carlesonlab" or name.startswith("carlesonlab.")]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("b")
        self.stack = [-1]
        self.op_id = -1
        self.work: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._patched: list = []
        self._osc = None

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of each TRACED function in the package."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for modname in TRACED:
            importlib.import_module(f"carlesonlab.{modname}")
        self._osc = sys.modules["carlesonlab.oscillatory"]
        modules = package_modules()
        for modname, funcs in TRACED.items():
            home = sys.modules[f"carlesonlab.{modname}"]
            for fname in funcs:
                orig = getattr(home, fname)
                qual = f"{modname}.{fname}"
                wrapper = self._wrap(qual, orig,
                                     getattr(self, f"_note_{modname}_{fname}", None))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        """Put every original function object back where it was bound."""
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    @property
    def patched(self) -> list:
        """(module, attribute, original) for every binding now wrapped."""
        return list(self._patched)

    def _wrap(self, qual: str, fn, note):
        if qual not in self.names:
            self.names.append(qual)
        nid = self.names.index(qual)
        name, start, end = self.name, self.start, self.end
        parent, op, tag, stack = self.parent, self.op, self.tag, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            t = note(*args, **kwargs) if note is not None else 0
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            tag.append(t or 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; every span opened inside belongs to it."""
        if self.stack != [-1]:
            raise RuntimeError("op spans do not nest")
        i = len(self.start)
        self.name.append(0)
        self.parent.append(-1)
        self.op.append(op_id)
        self.tag.append(0)
        self.start.append(0.0)
        self.end.append(0.0)
        self.op_id = op_id
        self.stack.append(i)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self.start[i] = t0
            self.stack.pop()
            self.op_id = -1

    # -- work counts from call arguments ---------------------------------

    def _add(self, key: str, n: float) -> None:
        self.work[key] = self.work.get(key, 0) + n

    def _seen(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def _note_multiplier_m_j(self, j, *args, **kwargs):
        j = int(j)
        self._add("multiplier.m_j.terms", 2 ** j - 2 ** (j - 2) + 1)

    def _note_bumps_psi_k(self, k, t, *args, **kwargs):
        arr = np.ascontiguousarray(t, dtype=float)
        self._seen("bumps.psi_k", (int(k), arr.shape, zlib.crc32(arr)))

    def _note_arithmetic_gauss_sum(self, r, *args, **kwargs):
        self._seen("arithmetic.gauss_sum", (r.Q, r.A, r.B))

    def _note_arithmetic_gauss_row(self, A, Q, *args, **kwargs):
        self._add("arithmetic.gauss_row.points", int(Q))

    def _note_oscillatory_h_row(self, k, lam, G, oversample=8, *args, **kwargs):
        # FFT length by h_row's own sizing rule: G * 2**p zero-padded points
        bandwidth = 2.0 * lam * 2.0 ** k + 0.5
        p = max(0, math.ceil(math.log2(oversample * bandwidth)))
        p = max(p, 5 - (k - 2))
        self._add("oscillatory.h_row.grid_points", int(G))
        self._add("oscillatory.h_row.fft_points", int(G) * 2 ** p)

    def _note_oscillatory_h_j(self, j, x, y, *args, **kwargs):
        """Path tag by _osc_scaled's selection rule: 1 table, 2 direct, 3 dual."""
        X = x * 4.0 ** j
        Y = y * 2.0 ** j
        if X == 0.0:
            return 1
        if X < 0.0:
            X, Y = -X, -Y
        direct_budget = getattr(self._osc, "_DIRECT_BUDGET", 2 ** 14)
        dual_min_x = getattr(self._osc, "_DUAL_MIN_X", 2 ** 12)
        if 4.0 * (X + abs(Y)) <= direct_budget or X < dual_min_x:
            return 2
        return 3

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy columns, with each span's self time."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        op = np.frombuffer(self.op, dtype=np.int32).copy()
        tag = np.frombuffer(self.tag, dtype=np.int8).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": name, "start": start, "end": end, "parent": parent,
                "op": op, "tag": tag, "dur": dur, "self": dur - child}

    def check_nesting(self, cols: dict | None = None) -> float:
        """Largest |sum of self times in an op - the op's wall time|.

        Zero up to rounding when every span sits inside its parent and
        carries its root's op id; raises when a span has no op.
        """
        c = cols or self.arrays()
        if np.any(c["op"] < 0):
            raise ValueError("spans recorded outside any op")
        roots = np.nonzero(c["parent"] < 0)[0]
        self_by_op = np.bincount(c["op"], weights=c["self"],
                                 minlength=int(c["op"].max()) + 1)
        if np.any(c["self"] < -1e-9):
            raise ValueError("a span's children outlast it")
        return float(np.max(np.abs(self_by_op[c["op"][roots]] - c["dur"][roots])))

    def layer_stats(self) -> dict:
        """calls, self_s, and h_j per-path calls and time, by function name."""
        c = self.arrays()
        n = len(self.names)
        calls = np.bincount(c["name"], minlength=n)
        self_s = np.bincount(c["name"], weights=c["self"], minlength=n)
        out = {}
        for i, qual in enumerate(self.names):
            out[f"{qual}.calls"] = int(calls[i])
            out[f"{qual}.self_s"] = float(self_s[i])
        if "oscillatory.h_j" in self.names:
            hj = c["name"] == self.names.index("oscillatory.h_j")
            for t, path in enumerate(H_J_PATHS, start=1):
                sel = hj & (c["tag"] == t)
                out[f"oscillatory.h_j.{path}.calls"] = int(sel.sum())
                out[f"oscillatory.h_j.{path}.s"] = float(c["dur"][sel].sum())
        for key, val in self.work.items():
            out[key] = val
        for key, items in self.distinct.items():
            made = out.get(f"{key}.calls", 0)
            out[f"{key}.distinct_ratio"] = len(items) / made if made else 0.0
        return out

    def save(self, path: Path) -> None:
        """Write every span as columns of one .npz file."""
        c = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 **{k: c[k] for k in ("name", "start", "end", "parent", "op", "tag")})
