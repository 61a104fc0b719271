"""Workloads of the carlesonlab benchmark: op pools, schedules, calls, outputs.

A workload is a closed loop over cycles.  A cycle runs one op from each of
the workload's slots, in an order drawn from the run seed.  Every op input
comes from a fixed pool per slot, so the reference outputs recorded once
over all pools (``references.json``) cover every run.  The run seed fixes
the order in which each slot walks its pool; a slot repeats an input only
after its whole pool has been used.  The library receives only the
generated inputs.  WORKLOADS.md gives the reasons for each choice.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

EPSILON = 0.1
C11_SEED = 20240901   # criterion 11's seed; first entry of every seed pool


@dataclass(frozen=True)
class Op:
    """One call into the library: a kind plus its inputs as (name, value) pairs."""

    kind: str
    params: tuple

    @property
    def key(self) -> str:
        return self.kind + ":" + ",".join(f"{k}={v}" for k, v in self.params)

    @property
    def p(self) -> dict:
        return dict(self.params)


@dataclass
class Context:
    """Per-process state the ops share: the package and the cli scratch area."""

    lab: object
    scratch: Path
    artifact_bytes: int = 0
    n_dirs: int = 0
    last_dir: Path | None = None


def _seeds(n: int, base: int) -> list:
    return [C11_SEED] + [base + 7919 * i for i in range(1, n)]


def _op(kind: str, **params) -> Op:
    return Op(kind, tuple(params.items()))


# ---------------------------------------------------------------------------
# decay: multiplier.decay_report at one scale per op
# ---------------------------------------------------------------------------

DECAY_J = (11, 12, 13, 14, 15)
DECAY_G = 128


def _call_decay(ctx: Context, p: dict):
    mult = ctx.lab.multiplier
    return mult.decay_report([p["j"]], epsilon=EPSILON,
                             grid=mult.GridSpec(G=DECAY_G, strata=3),
                             n_derivative_samples=10, boxes_per_shell=1,
                             major_strata=3, seed=p["seed"])


def _out_decay(ctx: Context, p: dict, rep) -> dict:
    row = rep["per_j"][0]
    return {k: row[k] for k in ("sup_abs_Ej", "sup_abs_Ej_uncovered_boxes",
                                "sup_major_arc_error", "sup_abs_Lj_off_boxes",
                                "derivative_ratio", "n_boxes_sampled")}


# ---------------------------------------------------------------------------
# arith: Gauss-sum laws and the box-overlap scan
# ---------------------------------------------------------------------------

def _call_modulus(ctx: Context, p: dict):
    return ctx.lab.arithmetic.odd_q_modulus_deviation(p["qmax"])


def _out_modulus(ctx: Context, p: dict, rep) -> dict:
    # the argmax locates rounding noise (deviations ~1e-15), so it is no output
    return {"max_deviation": rep["max_deviation"]}


def _call_gauss_scan(ctx: Context, p: dict):
    return ctx.lab.arithmetic.gauss_decay_scan(p["qmax"])


def _out_gauss_scan(ctx: Context, p: dict, rep) -> dict:
    return {"max_scaled": rep["max_scaled"], "argmax": rep["argmax"],
            "per_q_max_abs": rep["per_q_max_abs"]}


def _call_box(ctx: Context, p: dict):
    return ctx.lab.arithmetic.find_box_overlaps(p["j"], EPSILON, qmax=p["qmax"])


def _out_box(ctx: Context, p: dict, rep) -> dict:
    return dict(rep)


def _box_pool() -> list:
    pool = []
    for j in (11, 12, 13):
        qnat = int(2.0 ** (6.0 * EPSILON * j) + 1e-9)
        for f in np.linspace(0.7, 1.0, 10):
            pool.append(_op("box", j=j, qmax=int(round(f * qnat))))
    return pool


# ---------------------------------------------------------------------------
# cli: in-process cli.main, checked by exit code and artifact digests
# ---------------------------------------------------------------------------

def _call_cli(ctx: Context, p: dict):
    ctx.n_dirs += 1
    ctx.last_dir = ctx.scratch / f"op{ctx.n_dirs}"
    argv = list(p["argv"]) + ["-o", str(ctx.last_dir / "out")]
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
        return ctx.lab.cli.main(argv)


def _out_cli(ctx: Context, p: dict, code) -> dict:
    digests = {}
    if ctx.last_dir.is_dir():
        for f in sorted(ctx.last_dir.iterdir()):
            data = f.read_bytes()
            ctx.artifact_bytes += len(data)
            digests[f.name] = hashlib.sha256(data).hexdigest()
        shutil.rmtree(ctx.last_dir)
    return {"exit": code, "artifacts": digests}


def _cli(*argv) -> Op:
    return _op("cli", argv=tuple(str(a) for a in argv))


def _seeded(argv: tuple, base: int) -> list:
    return [_cli(*argv, "--seed", s) for s in _seeds(16, base)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

KINDS = {
    "decay": (_call_decay, _out_decay),
    "modulus": (_call_modulus, _out_modulus),
    "gauss_scan": (_call_gauss_scan, _out_gauss_scan),
    "box": (_call_box, _out_box),
    "cli": (_call_cli, _out_cli),
}

# criterion 11's command set; the seeded commands draw --seed from a pool
C11 = [
    [_cli("gauss", "--qmax", 32)],
    [_cli("cover", "--cantor", 2, 6, "--t-exp", 3)],
    _seeded(("approx-error", "--jmin", 8, "--jmax", 10, "--grid", 128,
             "--strata", 3), 11),
    _seeded(("norm-probe", "--cantor", 3, 3, "--lengths", "64,128",
             "--trials", 6), 12),
    _seeded(("bourgain-growth", "--n-list", "2,4", "--grid", 256,
             "--trials", 4), 13),
    _seeded(("single-l", "--l-list", "0,6", "--grid", 4096, "--trials", 2), 14),
]

# one pool per slot; a cycle runs one op of each slot
SLOTS = {
    "decay": [[_op("decay", j=j, seed=s) for s in _seeds(12, 1000 * j)]
              for j in DECAY_J],
    "arith": [[_op("modulus", qmax=q) for q in range(151, 252, 4)],
              [_op("gauss_scan", qmax=q) for q in range(256, 513, 8)],
              _box_pool()],
    "cli": C11 + [
        _seeded(("maximal", "--cantor", 2, 6, "--length", 512), 15),
        _seeded(("oscillatory-growth", "--n-list", "4,16", "--grid", 1024,
                 "--k0", 3, "--trials", 8), 16),
        [_cli("gauss", "--qmax", q) for q in range(40, 65, 4)],
        [_cli("shell", "--s", s) for s in (3, 4)],
        [_cli("cantor", "--d", d, "--depth", k)
         for d, k in ((2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6))],
    ],
}

# seconds per cycle at the commit that recorded references.json, on the
# machine described in WORKLOADS.md; sizes the fixed op list of a traced run
CYCLE_S = {"decay": 2.2, "arith": 0.33, "cli": 1.45}


def cycles(workload: str, seed: int):
    """Endless cycles of ops for a workload; the same seed gives the same ops."""
    slots = SLOTS[workload]
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(len(pool)) for pool in slots]
    k = 0
    while True:
        order = rng.permutation(len(slots))
        yield [slots[s][int(perms[s][k % len(slots[s])])] for s in order]
        k += 1


def all_ops(workload: str) -> list:
    """Every op in the workload's pools, once each."""
    return list(dict.fromkeys(op for pool in SLOTS[workload] for op in pool))


def call(ctx: Context, op: Op):
    """Call the library for one op and return its raw result."""
    return KINDS[op.kind][0](ctx, op.p)


def outputs(ctx: Context, op: Op, raw) -> dict:
    """The op's checked outputs as JSON-native values."""
    _, out = KINDS[op.kind]
    return native(out(ctx, op.p, raw))


def native(obj):
    """numpy scalars and arrays, tuples and dicts as plain JSON values."""
    if isinstance(obj, dict):
        return {str(k): native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [native(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


# ---------------------------------------------------------------------------
# warm-up: untimed, fills lazy tables and first-call costs
# ---------------------------------------------------------------------------

def warm_up(ctx: Context, workload: str) -> float:
    """Run the workload's warm-up; return psi_hat's first-call time (0 if unused)."""
    lab = ctx.lab
    first_psi_hat = 0.0
    if workload in ("decay", "cli"):
        t0 = perf_counter()
        lab.oscillatory.psi_hat(0.25)
        first_psi_hat = perf_counter() - t0
    if workload == "decay":
        lab.multiplier.decay_report([8], epsilon=EPSILON,
                                    grid=lab.multiplier.GridSpec(G=64, strata=3),
                                    n_derivative_samples=2, boxes_per_shell=1)
    elif workload == "arith":
        lab.arithmetic.odd_q_modulus_deviation(31)
        lab.arithmetic.gauss_decay_scan(32)
        lab.arithmetic.find_box_overlaps(8, EPSILON)
    elif workload == "cli":
        for argv in (["gauss", "--qmax", "4"], ["shell", "--s", "2"],
                     ["cantor", "--d", "2", "--depth", "2"],
                     ["cover", "--cantor", "2", "3", "--t-exp", "2"],
                     ["norm-probe", "--cantor", "2", "2", "--lengths", "16,32",
                      "--trials", "2"],
                     ["bourgain-growth", "--n-list", "2", "--grid", "64",
                      "--trials", "2"],
                     ["single-l", "--l-list", "0", "--grid", "256",
                      "--trials", "1"]):
            code = _call_cli(ctx, {"argv": argv})
            if code not in (0, 1):
                raise RuntimeError(f"warm-up command {argv} exited {code}")
            shutil.rmtree(ctx.last_dir, ignore_errors=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return first_psi_hat


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

RTOL = 1e-7
ATOL = 1e-9


def mismatches(got, ref, path: str = "") -> list:
    """Where got differs from ref: floats beyond ATOL + RTOL*|ref|, else exactly."""
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if abs(got - ref) <= ATOL + RTOL * abs(ref):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [m for k in ref for m in mismatches(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in mismatches(g, r, f"{path}[{i}]")]
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != {ref!r}"]
    return []
