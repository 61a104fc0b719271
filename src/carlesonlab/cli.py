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
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

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


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_to_native(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    path.write_text("\n".join(lines) + "\n")


class ConfigError(Exception):
    pass


def _resolve(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if not 0.0 < cfg["epsilon"] < 1.0 / 7.0:
        raise ConfigError(f"epsilon must lie in (0, 1/7), got {cfg['epsilon']}")
    for key in ("qmax", "jmin", "jmax", "grid", "strata", "trials",
                "radius_factor", "den_cap"):
        if int(cfg[key]) < 1:
            raise ConfigError(f"{key} must be positive, got {cfg[key]}")
    if int(cfg["qmax"]) > 2 ** 16:
        raise ConfigError(f"qmax exceeds the 2^16 cap: {cfg['qmax']}")
    if int(cfg["jmax"]) > 24:
        raise ConfigError(f"jmax exceeds the direct-sum cap 24: {cfg['jmax']}")
    return cfg


def _out_base(cfg: dict, command: str) -> Path:
    return Path(cfg["output"] or f"carlesonlab-{command}")


def _embed(cfg: dict) -> dict:
    """Config as recorded in artifacts: the artifact path itself is
    where a run lives, not part of what it computed."""
    return {k: v for k, v in cfg.items() if k != "output"}


def _check(report: dict, checks: list) -> list:
    failures = []
    for name, ok in checks:
        if not ok:
            failures.append(name)
    report["checks"] = {name: bool(ok) for name, ok in checks}
    return failures


def _load_lambda_set(cfg, args):
    from .lambda_sets import cantor_set, lambda_set_from_json
    if getattr(args, "cantor", None):
        d, depth = args.cantor
        return cantor_set(int(d), int(depth))
    if getattr(args, "input", None):
        return lambda_set_from_json(Path(args.input).read_text())
    raise ConfigError("provide --cantor D DEPTH or --input FILE")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gauss(args) -> int:
    from math import gcd
    from .arithmetic import gauss_row
    cfg = _resolve(args)
    qmax = int(cfg["qmax"])
    rows = []
    worst_odd = 0.0
    for q in range(1, qmax + 1):
        for a in range(q):
            row = gauss_row(a, q)
            ga = gcd(a, q)
            for b in range(q):
                if gcd(ga, b) != 1 and not (q == 1):
                    continue
                s = row[b]
                rows.append((q, a, b, float(s.real), float(s.imag),
                             float(abs(s))))
                if q % 2 == 1 and ga == 1:
                    worst_odd = max(worst_odd, abs(abs(s) - q ** -0.5))
    base = _out_base(cfg, "gauss")
    _write_csv(base.with_suffix(".csv"),
               ["Q", "A", "B", "re_S", "im_S", "abs_S"], rows)
    report = {"config": _embed(cfg), "command": "gauss", "n_rows": len(rows),
              "max_odd_modulus_deviation": worst_odd}
    failures = _check(report, [("odd_q_modulus_law", worst_odd <= 1e-12)])
    _write_json(base.with_suffix(".json"), report)
    return 1 if failures else 0


def cmd_shell(args) -> int:
    from .arithmetic import enumerate_shell
    cfg = _resolve(args)
    shell = enumerate_shell(int(args.s))
    base = _out_base(cfg, "shell")
    _write_csv(base.with_suffix(".csv"), ["Q", "A", "B"],
               [(r.Q, r.A, r.B) for r in shell])
    _write_json(base.with_suffix(".json"),
                {"config": _embed(cfg), "command": "shell", "s": int(args.s),
                 "count": len(shell)})
    return 0


def cmd_multiplier_sample(args) -> int:
    from .multiplier import m_j, l_js, e_j
    cfg = _resolve(args)
    j = int(args.j)
    lam, beta = float(args.lam), float(args.beta)
    eps = float(cfg["epsilon"])
    per_shell = {}
    for s in range(1, math.floor(eps * j) + 1):
        per_shell[str(s)] = l_js(j, s, lam, beta, tol=cfg["tol"])
    payload = {
        "config": _embed(cfg), "command": "multiplier-sample",
        "j": j, "lam": lam, "beta": beta,
        "m_j": m_j(j, lam, beta),
        "l_js": per_shell,
        "e_j": e_j(j, lam, beta, eps, cfg["tol"]),
    }
    _write_json(_out_base(cfg, "multiplier-sample").with_suffix(".json"), payload)
    return 0


def cmd_approx_error(args) -> int:
    from .multiplier import decay_report, GridSpec
    cfg = _resolve(args)
    rep = decay_report(
        range(int(cfg["jmin"]), int(cfg["jmax"]) + 1),
        epsilon=float(cfg["epsilon"]),
        grid=GridSpec(G=int(cfg["grid"]), strata=int(cfg["strata"])),
        tol=float(cfg["tol"]),
        boxes_per_shell=int(cfg["boxes_per_shell"]),
        seed=int(cfg["seed"]),
    )
    rep["config"] = _embed(cfg)
    rep["command"] = "approx-error"
    failures = _check(rep, [
        ("ej_decay_slope",
         rep["slopes"]["Ej"] is not None
         and rep["slopes"]["Ej"] <= CHECK_THRESHOLDS["ej_decay_slope_max"]),
        ("major_arc_slope",
         rep["slopes"]["major_arc"] is not None
         and rep["slopes"]["major_arc"] <= CHECK_THRESHOLDS["major_arc_slope_max"]),
    ])
    base = _out_base(cfg, "approx-error")
    _write_json(base.with_suffix(".json"), rep)
    _write_csv(base.with_suffix(".csv"),
               ["j", "sup_abs_Ej", "sup_major_arc_error",
                "sup_abs_Lj_off_boxes", "derivative_ratio"],
               [(r["j"], r["sup_abs_Ej"], r["sup_major_arc_error"],
                 r["sup_abs_Lj_off_boxes"], r["derivative_ratio"])
                for r in rep["per_j"]])
    for name in failures:
        print(f"FAILED check: {name}", file=sys.stderr)
    return 1 if failures else 0


def cmd_cantor(args) -> int:
    from .lambda_sets import cantor_set, lambda_set_to_json
    cfg = _resolve(args)
    d, depth = int(args.d), int(args.depth)
    lam_set = cantor_set(d, depth)
    base = _out_base(cfg, "cantor")
    base.parent.mkdir(parents=True, exist_ok=True)
    base.with_suffix(".json").write_text(lambda_set_to_json(lam_set) + "\n")
    return 0


def cmd_cover(args) -> int:
    from .lambda_sets import cover, certificate_to_json, CoverError
    cfg = _resolve(args)
    lam_set = _load_lambda_set(cfg, args)
    t = Fraction(1, 2 ** int(args.t_exp))
    base = _out_base(cfg, "cover")
    try:
        cert = cover(lam_set, t, den_cap=int(cfg["den_cap"]))
    except CoverError as exc:
        print(f"FAILED check: covering_exists ({exc})", file=sys.stderr)
        return 1
    base.parent.mkdir(parents=True, exist_ok=True)
    base.with_suffix(".json").write_text(certificate_to_json(cert) + "\n")
    return 0


def cmd_maximal(args) -> int:
    from .operators import Signal, carleson_max, signal_to_json
    cfg = _resolve(args)
    lam_set = _load_lambda_set(cfg, args)
    L = int(args.length)
    R = int(args.radius if args.radius is not None
            else cfg["radius_factor"] * L)
    rng = np.random.default_rng(int(cfg["seed"]))
    f = Signal(rng.standard_normal(L) + 1j * rng.standard_normal(L))
    out = carleson_max(f, lam_set, R)
    ratio = out.norm2() / f.norm2()
    base = _out_base(cfg, "maximal")
    base.parent.mkdir(parents=True, exist_ok=True)
    base.with_suffix(".signal.json").write_text(signal_to_json(out) + "\n")
    _write_json(base.with_suffix(".json"), {
        "config": _embed(cfg), "command": "maximal", "length": L, "radius": R,
        "n_lambda": len(lam_set), "l2_ratio": ratio,
    })
    return 0


def cmd_norm_probe(args) -> int:
    from .operators import norm_probe
    cfg = _resolve(args)
    lam_set = _load_lambda_set(cfg, args)
    lengths = [int(x) for x in args.lengths.split(",")]
    factor = int(cfg["radius_factor"])
    rep = norm_probe(lam_set, lengths, int(cfg["trials"]), int(cfg["seed"]),
                     radius_rule=lambda L: factor * L)
    rep["config"] = _embed(cfg)
    rep["command"] = "norm-probe"
    top_growth = max(rep["growth_ratios"][-2:]) if len(rep["growth_ratios"]) >= 2 \
        else (rep["growth_ratios"][-1] if rep["growth_ratios"] else 0.0)
    failures = _check(rep, [
        ("top_growth_below_10pct",
         top_growth < CHECK_THRESHOLDS["norm_probe_top_growth_max"]),
    ])
    base = _out_base(cfg, "norm-probe")
    _write_json(base.with_suffix(".json"), rep)
    _write_csv(base.with_suffix(".csv"), ["length", "radius", "max_ratio"],
               [(r["length"], r["radius"], r["max_ratio"]) for r in rep["rows"]])
    for name in failures:
        print(f"FAILED check: {name}", file=sys.stderr)
    return 1 if failures else 0


def cmd_bourgain_growth(args) -> int:
    from .operators import bourgain_growth_report
    cfg = _resolve(args)
    n_list = [int(x) for x in args.n_list.split(",")]
    rep = bourgain_growth_report(n_list, int(cfg["grid"]), int(cfg["trials"]),
                                 int(cfg["seed"]))
    rep["config"] = _embed(cfg)
    rep["command"] = "bourgain-growth"
    vals = [(r["N"], r["ratio_over_log2N"]) for r in rep["rows"] if r["N"] >= 8]
    monotone = all(vals[i + 1][1] <= vals[i][1] for i in range(len(vals) - 1))
    failures = _check(rep, [("ratio_over_log2N_non_increasing", monotone)])
    base = _out_base(cfg, "bourgain-growth")
    _write_json(base.with_suffix(".json"), rep)
    _write_csv(base.with_suffix(".csv"), ["N", "max_ratio", "ratio_over_log2N"],
               [(r["N"], r["max_ratio"], r["ratio_over_log2N"])
                for r in rep["rows"]])
    for name in failures:
        print(f"FAILED check: {name}", file=sys.stderr)
    return 1 if failures else 0


def cmd_oscillatory_growth(args) -> int:
    from .operators import oscillatory_growth_report
    cfg = _resolve(args)
    n_list = [int(x) for x in args.n_list.split(",")]
    rep = oscillatory_growth_report(n_list, int(cfg["grid"]), int(cfg["k0"]),
                                    int(cfg["trials"]), int(cfg["seed"]))
    rep["config"] = _embed(cfg)
    rep["command"] = "oscillatory-growth"
    finite = all(math.isfinite(r["max_ratio"]) for r in rep["rows"])
    failures = _check(rep, [("ratios_finite", finite)])
    base = _out_base(cfg, "oscillatory-growth")
    _write_json(base.with_suffix(".json"), rep)
    _write_csv(base.with_suffix(".csv"), ["N", "max_ratio", "ratio_over_log2N"],
               [(r["N"], r["max_ratio"], r["ratio_over_log2N"])
                for r in rep["rows"]])
    for name in failures:
        print(f"FAILED check: {name}", file=sys.stderr)
    return 1 if failures else 0


def cmd_single_l(args) -> int:
    from .operators import single_l_report
    cfg = _resolve(args)
    l_list = [int(x) for x in args.l_list.split(",")]
    rep = single_l_report(l_list, int(cfg["grid"]), int(cfg["trials"]),
                          int(cfg["seed"]))
    rep["config"] = _embed(cfg)
    rep["command"] = "single-l"
    slope = rep["slope_log2_ratio_vs_l"]
    failures = _check(rep, [
        ("single_l_decay_slope",
         slope is not None and slope <= CHECK_THRESHOLDS["single_l_slope_max"]),
    ])
    base = _out_base(cfg, "single-l")
    _write_json(base.with_suffix(".json"), rep)
    for name in failures:
        print(f"FAILED check: {name}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="carlesonlab",
        description="Verification harnesses for the restricted quadratic "
                    "Carleson operator laboratory.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--output", "-o", help="artifact base path")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--grid", type=int)
        sp.add_argument("--trials", type=int)

    sp = sub.add_parser("gauss", help="Gauss-sum table as CSV")
    sp.add_argument("--qmax", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_gauss)

    sp = sub.add_parser("shell", help="reduced rationals of one shell")
    sp.add_argument("--s", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_shell)

    sp = sub.add_parser("multiplier-sample", help="M_j, L_js, E_j at a point")
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--lam", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_multiplier_sample)

    sp = sub.add_parser("approx-error", help="decay report for E_j")
    sp.add_argument("--jmin", type=int)
    sp.add_argument("--jmax", type=int)
    sp.add_argument("--strata", type=int)
    sp.add_argument("--boxes-per-shell", dest="boxes_per_shell", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_approx_error)

    sp = sub.add_parser("cantor", help="Cantor-type modulation set as JSON")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_cantor)

    sp = sub.add_parser("cover", help="arithmetic covering certificate")
    sp.add_argument("--cantor", nargs=2, metavar=("D", "DEPTH"))
    sp.add_argument("--input", help="lambda-set JSON file")
    sp.add_argument("--t-exp", dest="t_exp", type=int, required=True,
                    help="interval length 2**-T_EXP")
    sp.add_argument("--den-cap", dest="den_cap", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_cover)

    sp = sub.add_parser("maximal", help="apply the truncated maximal operator")
    sp.add_argument("--cantor", nargs=2, metavar=("D", "DEPTH"))
    sp.add_argument("--input", help="lambda-set JSON file")
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--radius", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_maximal)

    sp = sub.add_parser("norm-probe", help="l2 ratio growth over lengths")
    sp.add_argument("--cantor", nargs=2, metavar=("D", "DEPTH"))
    sp.add_argument("--input", help="lambda-set JSON file")
    sp.add_argument("--lengths", required=True, help="comma-separated lengths")
    sp.add_argument("--radius-factor", dest="radius_factor", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_norm_probe)

    sp = sub.add_parser("bourgain-growth", help="multi-frequency growth curve")
    sp.add_argument("--n-list", dest="n_list", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_bourgain_growth)

    sp = sub.add_parser("oscillatory-growth", help="oscillatory growth curve")
    sp.add_argument("--n-list", dest="n_list", required=True)
    sp.add_argument("--k0", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_oscillatory_growth)

    sp = sub.add_parser("single-l", help="single-scale maximal decay in l")
    sp.add_argument("--l-list", dest="l_list", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_single_l)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    import os
    import scipy.fft as sfft
    workers = int(os.environ.get("CARLESONLAB_WORKERS", "1"))
    try:
        with sfft.set_workers(max(1, workers)):
            return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
