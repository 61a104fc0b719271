"""Command-line entry point emitting byte-stable CSV/JSON artifacts.

Exit codes: 0 = artifacts written and all embedded checks passed;
1 = a named assertion-style check failed (the failing metric is printed);
2 = configuration error.

Defaults (flags override --config file entries, which override these):

    epsilon   0.1         seed     20240901     tol      1e-10
    qmax      64          jmin/jmax 8/14        grid     512
    strata    5           radius-factor 4       trials   50
    den-cap   10**6       boxes-per-shell 4     k0       3
    output    carlesonlab-<command>

Every JSON artifact except the bare ``cantor`` point list and the
``cover`` certificate embeds the fully resolved configuration; identical
configuration and seed reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.fft as sfft

from .arithmetic import (_check_epsilon, enumerate_shell, gauss_rows,
                         odd_q_modulus_deviation)
from .lambda_sets import (CoverError, cantor_set, certificate_to_json, cover,
                          lambda_set_from_json, lambda_set_to_json)
from .multiplier import GridSpec, decay_report, e_j, l_js, m_j
from .operators import (Signal, bourgain_growth_report, carleson_max,
                        norm_probe, oscillatory_growth_report, signal_to_json,
                        single_l_report)

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

CHECK_THRESHOLDS = {
    "odd_q_modulus_deviation_max": 1e-12,
    "ej_decay_slope_max": -0.05,
    "major_arc_slope_max": -0.5,
    "norm_probe_top_growth_max": 1.10,
    "single_l_slope_max": -0.1,
}


def _to_native(obj):
    """Recursively convert numpy scalars/arrays for deterministic JSON."""
    if isinstance(obj, dict):
        return {str(k): _to_native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_native(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, Fraction):
        return float(obj)
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_to_native(payload), indent=2, sort_keys=True) + "\n"


def _csv_text(header: list, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


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
    for key in ("qmax", "jmin", "jmax", "grid", "strata", "trials",
                "radius_factor", "den_cap"):
        if int(cfg[key]) < 1:
            raise ConfigError(f"{key} must be positive, got {cfg[key]}")
    if int(cfg["qmax"]) > 2 ** 16:
        raise ConfigError(f"qmax exceeds the 2^16 cap: {cfg['qmax']}")
    if int(cfg["jmax"]) > 24:
        raise ConfigError(f"jmax exceeds the direct-sum cap 24: {cfg['jmax']}")
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
    report under ``checks``; ``csv`` is (header, rows) for ``<base>.csv``;
    ``payloads`` maps a suffix to text written as it is.
    """

    report: dict | None = None
    checks: list | None = None
    csv: tuple | None = None
    payloads: dict = field(default_factory=dict)


def _emit(cfg: dict, command: str, out: Artifacts) -> int:
    """Write the artifacts, print each failed check; return the exit code."""
    base = Path(cfg["output"] or f"carlesonlab-{command}")
    files = dict(out.payloads)
    if out.report is not None:
        out.report["config"] = _embed(cfg)
        out.report["command"] = command
        if out.checks is not None:
            out.report["checks"] = {name: bool(ok) for name, ok in out.checks}
        files[".json"] = _json_text(out.report)
    if out.csv is not None:
        files[".csv"] = _csv_text(*out.csv)
    if files:
        base.parent.mkdir(parents=True, exist_ok=True)
    for suffix, text in files.items():
        base.with_suffix(suffix).write_text(text)
    failures = [name for name, ok in out.checks or () if not ok]
    for name in failures:
        print(f"FAILED check: {name}", file=sys.stderr)
    return 1 if failures else 0


def _columns(rows: list, *keys) -> tuple:
    """CSV (header, rows) of the given keys of each row dict."""
    return list(keys), [tuple(r[k] for k in keys) for r in rows]


def _load_lambda_set(args):
    if getattr(args, "cantor", None):
        d, depth = args.cantor
        return cantor_set(int(d), int(depth))
    if getattr(args, "input", None):
        return lambda_set_from_json(Path(args.input).read_text())
    raise ConfigError("provide --cantor D DEPTH or --input FILE")


# ---------------------------------------------------------------------------
# subcommands: each computes from the resolved config and returns Artifacts
# ---------------------------------------------------------------------------

def cmd_gauss(cfg, args) -> Artifacts:
    qmax = int(cfg["qmax"])
    rows = []
    for q in range(1, qmax + 1):
        table = gauss_rows(np.arange(q), q)
        for a in range(q):
            ga = math.gcd(a, q)
            for b in range(q):
                if math.gcd(ga, b) != 1:
                    continue
                s = table[a, b]
                rows.append((q, a, b, float(s.real), float(s.imag),
                             float(abs(s))))
    worst_odd = odd_q_modulus_deviation(qmax)["max_deviation"]
    return Artifacts(
        report={"n_rows": len(rows), "max_odd_modulus_deviation": worst_odd},
        checks=[("odd_q_modulus_law",
                 worst_odd <= CHECK_THRESHOLDS["odd_q_modulus_deviation_max"])],
        csv=(["Q", "A", "B", "re_S", "im_S", "abs_S"], rows))


def cmd_shell(cfg, args) -> Artifacts:
    shell = enumerate_shell(int(args.s))
    return Artifacts(report={"s": int(args.s), "count": len(shell)},
                     csv=(["Q", "A", "B"], [(r.Q, r.A, r.B) for r in shell]))


def cmd_multiplier_sample(cfg, args) -> Artifacts:
    j = int(args.j)
    lam, beta = float(args.lam), float(args.beta)
    eps = float(cfg["epsilon"])
    per_shell = {}
    for s in range(1, math.floor(eps * j) + 1):
        per_shell[str(s)] = l_js(j, s, lam, beta, tol=cfg["tol"])
    return Artifacts(report={
        "j": j, "lam": lam, "beta": beta,
        "m_j": m_j(j, lam, beta),
        "l_js": per_shell,
        "e_j": e_j(j, lam, beta, eps, cfg["tol"]),
    })


def cmd_approx_error(cfg, args) -> Artifacts:
    rep = decay_report(
        range(int(cfg["jmin"]), int(cfg["jmax"]) + 1),
        epsilon=float(cfg["epsilon"]),
        grid=GridSpec(G=int(cfg["grid"]), strata=int(cfg["strata"])),
        tol=float(cfg["tol"]),
        boxes_per_shell=int(cfg["boxes_per_shell"]),
        seed=int(cfg["seed"]),
    )
    return Artifacts(
        report=rep,
        checks=[
            ("ej_decay_slope",
             rep["slopes"]["Ej"] is not None
             and rep["slopes"]["Ej"] <= CHECK_THRESHOLDS["ej_decay_slope_max"]),
            ("major_arc_slope",
             rep["slopes"]["major_arc"] is not None
             and rep["slopes"]["major_arc"]
             <= CHECK_THRESHOLDS["major_arc_slope_max"]),
        ],
        csv=_columns(rep["per_j"], "j", "sup_abs_Ej", "sup_major_arc_error",
                     "sup_abs_Lj_off_boxes", "derivative_ratio"))


def cmd_cantor(cfg, args) -> Artifacts:
    lam_set = cantor_set(int(args.d), int(args.depth))
    return Artifacts(payloads={".json": lambda_set_to_json(lam_set) + "\n"})


def cmd_cover(cfg, args) -> Artifacts:
    lam_set = _load_lambda_set(args)
    t = Fraction(1, 2) ** int(args.t_exp)
    try:
        cert = cover(lam_set, t, den_cap=int(cfg["den_cap"]))
    except CoverError as exc:
        # no certificate to write; the check's name carries the reason
        return Artifacts(checks=[(f"covering_exists ({exc})", False)])
    return Artifacts(payloads={".json": certificate_to_json(cert) + "\n"})


def cmd_maximal(cfg, args) -> Artifacts:
    lam_set = _load_lambda_set(args)
    L = int(args.length)
    R = int(args.radius if args.radius is not None
            else cfg["radius_factor"] * L)
    rng = np.random.default_rng(int(cfg["seed"]))
    f = Signal(rng.standard_normal(L) + 1j * rng.standard_normal(L))
    out = carleson_max(f, lam_set, R)
    return Artifacts(
        report={"length": L, "radius": R, "n_lambda": len(lam_set),
                "l2_ratio": out.norm2() / f.norm2()},
        payloads={".signal.json": signal_to_json(out) + "\n"})


def cmd_norm_probe(cfg, args) -> Artifacts:
    lam_set = _load_lambda_set(args)
    lengths = [int(x) for x in args.lengths.split(",")]
    rep = norm_probe(lam_set, lengths, int(cfg["trials"]), int(cfg["seed"]),
                     radius_factor=int(cfg["radius_factor"]))
    top_growth = max(rep["growth_ratios"][-2:]) if len(rep["growth_ratios"]) >= 2 \
        else (rep["growth_ratios"][-1] if rep["growth_ratios"] else 0.0)
    return Artifacts(
        report=rep,
        checks=[("top_growth_below_10pct",
                 top_growth < CHECK_THRESHOLDS["norm_probe_top_growth_max"])],
        csv=_columns(rep["rows"], "length", "radius", "max_ratio"))


_GROWTH_COLUMNS = ("N", "max_ratio", "ratio_over_log2N")


def cmd_bourgain_growth(cfg, args) -> Artifacts:
    n_list = [int(x) for x in args.n_list.split(",")]
    rep = bourgain_growth_report(n_list, int(cfg["grid"]), int(cfg["trials"]),
                                 int(cfg["seed"]))
    vals = [(r["N"], r["ratio_over_log2N"]) for r in rep["rows"] if r["N"] >= 8]
    monotone = all(vals[i + 1][1] <= vals[i][1] for i in range(len(vals) - 1))
    return Artifacts(report=rep,
                     checks=[("ratio_over_log2N_non_increasing", monotone)],
                     csv=_columns(rep["rows"], *_GROWTH_COLUMNS))


def cmd_oscillatory_growth(cfg, args) -> Artifacts:
    n_list = [int(x) for x in args.n_list.split(",")]
    rep = oscillatory_growth_report(n_list, int(cfg["grid"]), int(cfg["k0"]),
                                    int(cfg["trials"]), int(cfg["seed"]))
    finite = all(math.isfinite(r["max_ratio"]) for r in rep["rows"])
    return Artifacts(report=rep, checks=[("ratios_finite", finite)],
                     csv=_columns(rep["rows"], *_GROWTH_COLUMNS))


def cmd_single_l(cfg, args) -> Artifacts:
    l_list = [int(x) for x in args.l_list.split(",")]
    rep = single_l_report(l_list, int(cfg["grid"]), int(cfg["trials"]),
                          int(cfg["seed"]))
    slope = rep["slope_log2_ratio_vs_l"]
    return Artifacts(report=rep, checks=[
        ("single_l_decay_slope",
         slope is not None and slope <= CHECK_THRESHOLDS["single_l_slope_max"]),
    ])


# ---------------------------------------------------------------------------

def _flag(*names, **kwargs) -> tuple:
    return names, kwargs


_LAMBDA_SOURCE = [
    _flag("--cantor", nargs=2, metavar=("D", "DEPTH")),
    _flag("--input", help="lambda-set JSON file"),
]

_COMMON = [
    _flag("--config", help="JSON config file"),
    _flag("--output", "-o", help="artifact base path"),
    _flag("--seed", type=int),
    _flag("--epsilon", type=float),
    _flag("--tol", type=float),
    _flag("--grid", type=int),
    _flag("--trials", type=int),
]

# command -> (help, own flags, runner); every command also takes _COMMON
COMMANDS = {
    "gauss": ("Gauss-sum table as CSV",
              [_flag("--qmax", type=int)], cmd_gauss),
    "shell": ("reduced rationals of one shell",
              [_flag("--s", type=int, required=True)], cmd_shell),
    "multiplier-sample": ("M_j, L_js, E_j at a point",
                          [_flag("--j", type=int, required=True),
                           _flag("--lam", type=float, required=True),
                           _flag("--beta", type=float, required=True)],
                          cmd_multiplier_sample),
    "approx-error": ("decay report for E_j",
                     [_flag("--jmin", type=int),
                      _flag("--jmax", type=int),
                      _flag("--strata", type=int),
                      _flag("--boxes-per-shell", dest="boxes_per_shell",
                            type=int)],
                     cmd_approx_error),
    "cantor": ("Cantor-type modulation set as JSON",
               [_flag("--d", type=int, required=True),
                _flag("--depth", type=int, required=True)], cmd_cantor),
    "cover": ("arithmetic covering certificate",
              _LAMBDA_SOURCE + [
                  _flag("--t-exp", dest="t_exp", type=int, required=True,
                        help="interval length 2**-T_EXP"),
                  _flag("--den-cap", dest="den_cap", type=int)],
              cmd_cover),
    "maximal": ("apply the truncated maximal operator",
                _LAMBDA_SOURCE + [_flag("--length", type=int, required=True),
                                  _flag("--radius", type=int)],
                cmd_maximal),
    "norm-probe": ("l2 ratio growth over lengths",
                   _LAMBDA_SOURCE + [
                       _flag("--lengths", required=True,
                             help="comma-separated lengths"),
                       _flag("--radius-factor", dest="radius_factor",
                             type=int)],
                   cmd_norm_probe),
    "bourgain-growth": ("multi-frequency growth curve",
                        [_flag("--n-list", dest="n_list", required=True)],
                        cmd_bourgain_growth),
    "oscillatory-growth": ("oscillatory growth curve",
                           [_flag("--n-list", dest="n_list", required=True),
                            _flag("--k0", type=int)],
                           cmd_oscillatory_growth),
    "single-l": ("single-scale maximal decay in l",
                 [_flag("--l-list", dest="l_list", required=True)],
                 cmd_single_l),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="carlesonlab",
        description="Verification harnesses for the restricted quadratic "
                    "Carleson operator laboratory.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for names, kwargs in flags + _COMMON:
            sp.add_argument(*names, **kwargs)
    return p


def _worker_count() -> int:
    """FFT workers from CARLESONLAB_WORKERS (default 1), an integer >= 1."""
    text = os.environ.get("CARLESONLAB_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError("CARLESONLAB_WORKERS must be an integer >= 1, "
                          f"got {text!r}")
    return workers


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with sfft.set_workers(_worker_count()):
            cfg = _resolve(args)
            run = COMMANDS[args.command][2]
            return _emit(cfg, args.command, run(cfg, args))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
