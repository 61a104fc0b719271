"""Command-line entry point emitting byte-stable CSV/JSON artifacts.

Exit codes: 0 = artifacts written and all embedded checks passed;
1 = a named assertion-style check failed (the failing metric is printed);
2 = configuration error; 3 = numerical failure (a quadrature refinement
missed its tolerance, or a computed report holds a NaN or an infinity,
whose key path is printed); 4 = any other error (its message is printed,
without a traceback).  Exits 2-4 write no artifact.

Each config key is declared once, with its default and type, in
``DEFAULTS``, and its closed range, if it has one, in ``BOUNDS``; its flag
is the key with ``-`` for ``_``.  A command takes the flags of exactly the
keys its runner reads, besides --config and --output; abbreviated flags
are refused.  The --config file is lab-wide: it may set any key, and it
is validated whole for every command.  Flags override
--config file entries, which override the defaults; the artifact base
path defaults to ``carlesonlab-<command>``.

Every JSON artifact except the bare ``cantor`` point list and the
``cover`` certificate embeds the fully resolved configuration; identical
configuration and seed reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .arithmetic import (_check_epsilon, _reduced_pairs, enumerate_shell,
                         gauss_rows, odd_q_modulus_deviation)
from .lambda_sets import (CoverError, cantor_set, certificate_to_json, cover,
                          lambda_set_from_json, lambda_set_to_json)
from .multiplier import (J_CAP, GridSpec, _l_j, _shell_sum, _shells,
                         decay_report, m_j)
from .operators import (Signal, _bourgain_size, _conv_size, _gaussian,
                        _oscillatory_size, _single_l_size,
                        bourgain_growth_report, carleson_max, norm_probe,
                        oscillatory_growth_report, signal_to_json,
                        single_l_report)
from .oscillatory import TOL_MAX, TOL_MIN, ConvergenceError

DEFAULTS = {
    "epsilon": 0.1,
    "seed": 20240901,
    "tol": 1e-10,
    "qmax": 64,
    "jmin": 8,
    "jmax": 14,
    "grid": 512,
    "strata": 5,
    "radius_factor": 4,
    "trials": 50,
    "den_cap": 10 ** 6,
    "boxes_per_shell": 4,
    "k0": 3,
    "output": None,
}

# key -> (lo, hi): a resolved value outside [lo, hi] exits 2; epsilon's
# open interval is the library's own check
BOUNDS = {
    "tol": (TOL_MIN, TOL_MAX),
    # the gauss table has about 0.2 qmax^3 rows, 4.7 million at 256
    "qmax": (1, 256),
    "jmin": (1, J_CAP),
    "jmax": (1, J_CAP),
    "grid": (1, math.inf),
    "strata": (1, math.inf),
    "trials": (1, math.inf),
    "radius_factor": (1, math.inf),
    "den_cap": (1, math.inf),
    "boxes_per_shell": (0, math.inf),
    "seed": (0, math.inf),                  # default_rng's domain
    "k0": (2, math.inf),
}

# entries of the largest array one run may allocate: approx-error's
# m_j_grid table, G x G, and the torus reports' (rows, G) arrays and h_row
# transforms; each is sized from the resolved config before anything is
# allocated, and a larger run exits 2 (maximal and norm-probe size their
# convolutions against operators.SIZE_CAP)
ARRAY_CAP = 2 ** 24


def _check_size(entries: int) -> None:
    if entries > ARRAY_CAP:
        raise ConfigError(f"the run's largest array would hold {entries} "
                          f"entries, past the cap {ARRAY_CAP}")


# gate -> (comparator, threshold): each gated number's one rule; no command
# checks gauss_decay (criterion 02) or derivative_ratio (05) yet
GATES = {
    "odd_q_modulus_deviation": (operator.le, 1e-12),
    "ej_decay_slope": (operator.le, -0.05),
    "major_arc_slope": (operator.le, -0.5),   # -(1 - 3 eps) + 0.2, eps 0.1
    "norm_probe_top_growth": (operator.lt, 1.10),
    "bourgain_largest_step": (operator.le, 0.0),
    "single_l_slope": (operator.le, -0.1),
    # frozen pre-build measurements, stored with headroom
    "gauss_decay": (operator.le, 2.733),      # max |S| Q^0.45 = 1.366040
    "derivative_ratio": (operator.le, 1.0),   # max |dE_j/dlam| / 4^j = 0.339
}


def passes(gate: str, value) -> bool:
    """Whether ``value`` exists and meets its gate in ``GATES``."""
    compare, threshold = GATES[gate]
    return value is not None and compare(value, threshold)


def top_growth(rep: dict) -> float:
    """A norm-probe report's larger growth over its last two doublings."""
    return max(rep["growth_ratios"][-2:], default=0.0)


def largest_step(rep: dict) -> float:
    """Largest rise of ratio_over_log2N between consecutive N >= 8, or 0."""
    vals = [r["ratio_over_log2N"] for r in rep["rows"] if r["N"] >= 8]
    return max((b - a for a, b in zip(vals, vals[1:])), default=0.0)


class NonFiniteReport(ArithmeticError):
    """A computed report holds a NaN or an infinity (exit 3)."""


def _to_native(obj, path: str = "report"):
    """``obj`` with numpy scalars and arrays, complex numbers and Fractions
    converted for deterministic JSON; raises NonFiniteReport with the key
    path (``path`` for ``obj`` itself) of the first NaN or infinity."""
    if isinstance(obj, dict):
        return {str(k): _to_native(v, f"{path}[{str(k)!r}]")
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_native(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, np.ndarray):
        return _to_native(obj.tolist(), path)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": _to_native(obj.real, f"{path}['re']"),
                "im": _to_native(obj.imag, f"{path}['im']")}
    if isinstance(obj, (float, np.floating, Fraction)):
        if not math.isfinite(obj):
            raise NonFiniteReport(f"{path} is not finite")
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _json_text(payload: dict) -> str:
    """Deterministic JSON; a NaN or infinity raises NonFiniteReport."""
    return json.dumps(_to_native(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _cells(column) -> list:
    """``str`` of each cell of a column (a float's shortest round-trip
    form, for Python and numpy floats alike).  An int64 or float64 array
    formats each distinct bit pattern once, so ``0.0`` and ``-0.0`` stay
    apart."""
    if isinstance(column, np.ndarray) and column.dtype in (np.int64,
                                                           np.float64):
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        distinct = np.array(list(map(str, bits.view(column.dtype).tolist())),
                            dtype=object)
        return distinct[inverse].tolist()
    return list(map(str, column))


_CSV_ROWS = 2 ** 16


def _write_csv(fh, header: list, columns) -> None:
    """Write equal-length columns as CSV to the text file ``fh``,
    ``_CSV_ROWS`` rows at a time, each block rendered column by column."""
    fh.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), _CSV_ROWS):
        block = [_cells(col[start:start + _CSV_ROWS]) for col in columns]
        fh.write("\n".join(map(",".join, zip(*block))) + "\n")


class ConfigError(Exception):
    pass


def _has_config_type(key: str, val) -> bool:
    """Whether a config-file value has its default's type: str or null for
    ``output``, int or float where the default is a float, else int (a
    JSON true/false is no number)."""
    default = DEFAULTS[key]
    if default is None:
        return val is None or isinstance(val, str)
    if isinstance(val, bool):
        return False
    if isinstance(default, float):
        return isinstance(val, (int, float))
    return isinstance(val, int)


def _resolve(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config} is not a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            if not _has_config_type(key, val):
                raise ConfigError(f"config key {key} has the wrong type: "
                                  f"{val!r}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    _check_epsilon(cfg["epsilon"])
    for key, (lo, hi) in BOUNDS.items():
        val = cfg[key]
        if not lo <= val <= hi:             # a NaN fails too
            raise ConfigError(f"{key} must lie in [{lo}, {hi}], got {val}")
    return cfg


def _embed(cfg: dict) -> dict:
    """Config as recorded in artifacts: the artifact path itself is
    where a run lives, not part of what it computed."""
    return {k: v for k, v in cfg.items() if k != "output"}


@dataclass
class Artifacts:
    """What one command computed, to be written next to its base path.

    ``report`` becomes ``<base>.json`` with the command and the resolved
    config embedded; ``checks`` are (name, passed) pairs, recorded in the
    report under ``checks``; ``csv`` is (header, columns) for
    ``<base>.csv``, each column a list or a numpy array of the cells;
    ``payloads`` maps a suffix to text written as it is.
    """

    report: dict | None = None
    checks: list | None = None
    csv: tuple | None = None
    payloads: dict = field(default_factory=dict)


def _create(path: Path, created: list):
    """Open ``path`` for writing and, once it is open, record it."""
    fh = path.open("w")
    created.append(path)
    return fh


def _emit(cfg: dict, command: str, out: Artifacts) -> int:
    """Write the artifacts, print each failed check; return the exit code.

    Every text is built (a non-finite report raises) before the first
    file is written, and the CSV, written in blocks, comes last.  If a
    write fails, every file and directory this call created is removed
    before the error propagates, so a failed run leaves no artifact."""
    base = Path(cfg["output"] or f"carlesonlab-{command}")
    files = dict(out.payloads)
    if out.report is not None:
        out.report["config"] = _embed(cfg)
        out.report["command"] = command
        if out.checks is not None:
            out.report["checks"] = {name: bool(ok) for name, ok in out.checks}
        files[".json"] = _json_text(out.report)
    made = [d for d in (base.parent, *base.parent.parents) if not d.exists()]
    created = []
    try:
        if files or out.csv is not None:
            base.parent.mkdir(parents=True, exist_ok=True)
        for suffix, text in files.items():
            with _create(base.with_suffix(suffix), created) as fh:
                fh.write(text)
        if out.csv is not None:
            with _create(base.with_suffix(".csv"), created) as fh:
                _write_csv(fh, *out.csv)
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        for d in made:                      # deepest first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    failures = [name for name, ok in out.checks or () if not ok]
    for name in failures:
        print(f"FAILED check: {name}", file=sys.stderr)
    return 1 if failures else 0


def _columns(rows: list, *keys) -> tuple:
    """CSV (header, columns) of the given keys of each row dict."""
    return list(keys), [[r[k] for r in rows] for k in keys]


def _load_lambda_set(args):
    if bool(args.cantor) == bool(args.input):
        raise ConfigError("provide one of --cantor D DEPTH or --input FILE")
    if args.cantor:
        return cantor_set(*args.cantor)
    return lambda_set_from_json(Path(args.input).read_text())


# ---------------------------------------------------------------------------
# subcommands: each computes from the resolved config and returns Artifacts
# ---------------------------------------------------------------------------

def cmd_gauss(cfg, args) -> Artifacts:
    qmax = cfg["qmax"]
    parts = []
    for q in range(1, qmax + 1):
        a, b = _reduced_pairs(q)
        s = gauss_rows(np.arange(q), q)[a, b]
        # hypot, as Python's abs(complex) computes |S|; numpy's complex
        # abs can differ from it in the last bit
        parts.append((np.full(a.size, q), a, b, s.real, s.imag,
                      np.hypot(s.real, s.imag)))
    columns = [np.concatenate(col) for col in zip(*parts)]
    worst_odd = odd_q_modulus_deviation(qmax)["max_deviation"]
    return Artifacts(
        report={"n_rows": len(columns[0]),
                "max_odd_modulus_deviation": worst_odd},
        checks=[("odd_q_modulus_law",
                 passes("odd_q_modulus_deviation", worst_odd))],
        csv=(["Q", "A", "B", "re_S", "im_S", "abs_S"], columns))


def cmd_shell(cfg, args) -> Artifacts:
    shell = enumerate_shell(args.s)
    return Artifacts(report={"s": args.s, "count": len(shell)},
                     csv=(["Q", "A", "B"], [[r.Q for r in shell],
                                            [r.A for r in shell],
                                            [r.B for r in shell]]))


def cmd_multiplier_sample(cfg, args) -> Artifacts:
    j, lam, beta = args.j, args.lam, args.beta
    if not (math.isfinite(lam) and math.isfinite(beta)):
        raise ConfigError(f"--lam and --beta must be finite, got {lam}, {beta}")
    mv = m_j(j, lam, beta)
    shells, tol = _shells(j, cfg["epsilon"]), cfg["tol"]
    return Artifacts(report={
        "j": j, "lam": lam, "beta": beta,
        "m_j": mv,
        "l_js": {str(s): _shell_sum(j, s, lam, beta, shell, tol)
                 for s, shell in shells.items()},
        "e_j": mv - _l_j(j, lam, beta, shells, tol),
    })


def cmd_approx_error(cfg, args) -> Artifacts:
    _check_size(cfg["grid"] ** 2)
    rep = decay_report(
        range(cfg["jmin"], cfg["jmax"] + 1),
        epsilon=cfg["epsilon"],
        grid=GridSpec(G=cfg["grid"], strata=cfg["strata"]),
        tol=cfg["tol"],
        boxes_per_shell=cfg["boxes_per_shell"],
        seed=cfg["seed"],
    )
    return Artifacts(
        report=rep,
        checks=[
            ("ej_decay_slope", passes("ej_decay_slope", rep["slopes"]["Ej"])),
            ("major_arc_slope",
             passes("major_arc_slope", rep["slopes"]["major_arc"])),
        ],
        csv=_columns(rep["per_j"], "j", "sup_abs_Ej", "sup_major_arc_error",
                     "sup_abs_Lj_off_boxes", "derivative_ratio"))


def cmd_cantor(cfg, args) -> Artifacts:
    lam_set = cantor_set(args.d, args.depth)
    return Artifacts(payloads={".json": lambda_set_to_json(lam_set) + "\n"})


def cmd_cover(cfg, args) -> Artifacts:
    lam_set = _load_lambda_set(args)
    t = Fraction(1, 2) ** args.t_exp
    try:
        cert = cover(lam_set, t, den_cap=cfg["den_cap"])
    except CoverError as exc:
        # no certificate to write; the check's name carries the reason
        return Artifacts(checks=[(f"covering_exists ({exc})", False)])
    return Artifacts(payloads={".json": certificate_to_json(cert) + "\n"})


def cmd_maximal(cfg, args) -> Artifacts:
    lam_set = _load_lambda_set(args)
    L = args.length
    R = cfg["radius_factor"] * L
    _conv_size(L, R)            # an oversized run exits before its draw
    rng = np.random.default_rng(cfg["seed"])
    f = Signal(_gaussian(rng, L))
    out = carleson_max(f, lam_set, R)
    return Artifacts(
        report={"length": L, "radius": R, "n_lambda": len(lam_set),
                "l2_ratio": out.norm2() / f.norm2()},
        payloads={".signal.json": signal_to_json(out) + "\n"})


def cmd_norm_probe(cfg, args) -> Artifacts:
    lam_set = _load_lambda_set(args)
    rep = norm_probe(lam_set, args.lengths, cfg["trials"], cfg["seed"],
                     radius_factor=cfg["radius_factor"])
    return Artifacts(
        report=rep,
        checks=[("top_growth_below_10pct",
                 passes("norm_probe_top_growth", top_growth(rep)))],
        csv=_columns(rep["rows"], "length", "radius", "max_ratio"))


_GROWTH_COLUMNS = ("N", "max_ratio", "ratio_over_log2N")


def cmd_bourgain_growth(cfg, args) -> Artifacts:
    _check_size(_bourgain_size(args.n_list, cfg["grid"], cfg["trials"]))
    rep = bourgain_growth_report(args.n_list, cfg["grid"], cfg["trials"],
                                 cfg["seed"])
    monotone = passes("bourgain_largest_step", largest_step(rep))
    return Artifacts(report=rep,
                     checks=[("ratio_over_log2N_non_increasing", monotone)],
                     csv=_columns(rep["rows"], *_GROWTH_COLUMNS))


def cmd_oscillatory_growth(cfg, args) -> Artifacts:
    _check_size(_oscillatory_size(args.n_list, cfg["grid"], cfg["k0"],
                                  cfg["trials"]))
    rep = oscillatory_growth_report(args.n_list, cfg["grid"], cfg["k0"],
                                    cfg["trials"], cfg["seed"])
    finite = all(math.isfinite(r["max_ratio"]) for r in rep["rows"])
    return Artifacts(report=rep, checks=[("ratios_finite", finite)],
                     csv=_columns(rep["rows"], *_GROWTH_COLUMNS))


def cmd_single_l(cfg, args) -> Artifacts:
    _check_size(_single_l_size(args.l_list, cfg["grid"], cfg["trials"]))
    rep = single_l_report(args.l_list, cfg["grid"], cfg["trials"],
                          cfg["seed"])
    return Artifacts(report=rep, checks=[
        ("single_l_decay_slope",
         passes("single_l_slope", rep["slope_log2_ratio_vs_l"])),
    ])


# ---------------------------------------------------------------------------

def _flag(*names, **kwargs) -> tuple:
    return names, kwargs


def _config_flags(*keys) -> list:
    """The flag of each config key, typed as its default."""
    return [_flag("--" + key.replace("_", "-"), type=type(DEFAULTS[key]))
            for key in keys]


def _int_list(text: str) -> list:
    """A comma-separated list of integers."""
    return [int(x) for x in text.split(",")]


_LAMBDA_SOURCE = [
    _flag("--cantor", type=int, nargs=2, metavar=("D", "DEPTH")),
    _flag("--input", help="lambda-set JSON file"),
]

_COMMON = [
    _flag("--config", help="JSON config file"),
    _flag("--output", "-o", help="artifact base path"),
]

# command -> (help, own flags, runner); every command also takes _COMMON,
# and its config flags are those of the keys its runner reads
COMMANDS = {
    "gauss": ("Gauss-sum table as CSV", _config_flags("qmax"), cmd_gauss),
    "shell": ("reduced rationals of one shell",
              [_flag("--s", type=int, required=True)], cmd_shell),
    "multiplier-sample": ("M_j, L_js, E_j at a point",
                          [_flag("--j", type=int, required=True),
                           _flag("--lam", type=float, required=True),
                           _flag("--beta", type=float, required=True),
                           *_config_flags("epsilon", "tol")],
                          cmd_multiplier_sample),
    "approx-error": ("decay report for E_j",
                     _config_flags("jmin", "jmax", "grid", "strata",
                                   "boxes_per_shell", "epsilon", "tol",
                                   "seed"),
                     cmd_approx_error),
    "cantor": ("Cantor-type modulation set as JSON",
               [_flag("--d", type=int, required=True),
                _flag("--depth", type=int, required=True)], cmd_cantor),
    "cover": ("arithmetic covering certificate",
              _LAMBDA_SOURCE + [
                  _flag("--t-exp", type=int, required=True,
                        help="interval length 2**-T_EXP"),
                  *_config_flags("den_cap")],
              cmd_cover),
    "maximal": ("apply the truncated maximal operator",
                _LAMBDA_SOURCE + [_flag("--length", type=int, required=True),
                                  *_config_flags("radius_factor", "seed")],
                cmd_maximal),
    "norm-probe": ("l2 ratio growth over lengths",
                   _LAMBDA_SOURCE + [
                       _flag("--lengths", type=_int_list, required=True,
                             help="comma-separated lengths"),
                       *_config_flags("radius_factor", "trials", "seed")],
                   cmd_norm_probe),
    "bourgain-growth": ("multi-frequency growth curve",
                        [_flag("--n-list", type=_int_list, required=True),
                         *_config_flags("grid", "trials", "seed")],
                        cmd_bourgain_growth),
    "oscillatory-growth": ("oscillatory growth curve",
                           [_flag("--n-list", type=_int_list, required=True),
                            *_config_flags("k0", "grid", "trials", "seed")],
                           cmd_oscillatory_growth),
    "single-l": ("single-scale maximal decay in l",
                 [_flag("--l-list", type=_int_list, required=True),
                  *_config_flags("grid", "trials", "seed")],
                 cmd_single_l),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="carlesonlab",
        description="Verification harnesses for the restricted quadratic "
                    "Carleson operator laboratory.",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for names, kwargs in flags + _COMMON:
            sp.add_argument(*names, **kwargs)
    return p


# parsing leaves the parser unchanged, so one serves every call of main
_PARSER = build_parser()
_LIST_FLAGS = {names[0] for _, flags, _ in COMMANDS.values()
               for names, kwargs in flags if kwargs.get("type") is _int_list}
_NEGATIVE_LIST = re.compile(r"-\d+(,-?\d+)+")


def _joined_lists(argv) -> list:
    """argv (sys.argv[1:] when None) with each list flag joined to a next
    list that starts with a negative entry, as ``--l-list=-3,1``: argparse
    takes a lone ``-3,1`` for a flag.  The parser refuses abbreviations,
    so the full names are every spelling of a list flag."""
    out = []
    for token in sys.argv[1:] if argv is None else argv:
        if out and out[-1] in _LIST_FLAGS and _NEGATIVE_LIST.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(_joined_lists(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _resolve(args)
        run = COMMANDS[args.command][2]
        return _emit(cfg, args.command, run(cfg, args))
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except NonFiniteReport as exc:
        print(f"non-finite report value: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
