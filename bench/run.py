#!/usr/bin/env python3
"""Benchmark carlesonlab end to end (untraced) and per module (traced).

Run from the root of a checkout:

    python3 bench/run.py --workload decay --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload as a closed loop (one caller, one process,
FFT workers 1) in whole cycles until the ops have taken ``--seconds``, checks
every op's outputs against ``references.json`` and reports the end-to-end
metrics; ``setup_s`` is the median over fresh processes of importing the
package plus the workload's warm-up.  ``--trace 1`` runs a fixed op list
sized from ``--seconds``, each op once untraced and once with every public
function of each module wrapped (``tracer.py``), and reports the per-layer
metrics of the traced executions and the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout and from nowhere else;
without it the command exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

WORKLOADS = ("decay", "arith", "cli")
SETUP_RUNS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better) of every per-layer metric a traced run prints
PER_LAYER = tuple(
    [(f"multiplier.m_j.{s}", u, "lower")
     for s, u in (("calls", "count"), ("self_s", "s"), ("terms", "count"))]
    + [(f"multiplier.{f}.{s}", u, "lower")
       for f, s, u in (("m_j_grid", "calls", "count"), ("m_j_grid", "self_s", "s"),
                       ("big_l_j", "calls", "count"), ("big_l_j", "self_s", "s"),
                       ("decay_report", "self_s", "s"))]
    + [("oscillatory.h_j.calls", "count", "lower"),
       ("oscillatory.h_j.self_s", "s", "lower")]
    + [(f"oscillatory.h_j.{path}.{s}", u, "lower")
       for path in ("table", "direct", "dual")
       for s, u in (("calls", "count"), ("s", "s"))]
    + [(f"oscillatory.h_row.{s}", u, "lower")
       for s, u in (("calls", "count"), ("self_s", "s"),
                    ("grid_points", "count"), ("fft_points", "count"))]
    + [("oscillatory.psi_hat.first_call_s", "s", "lower"),
       ("bumps.psi_k.calls", "count", "lower"),
       ("bumps.psi_k.self_s", "s", "lower"),
       ("bumps.psi_k.distinct_ratio", "ratio", "higher"),
       ("bumps.chi_s.calls", "count", "lower"),
       ("bumps.phi_hat.calls", "count", "lower"),
       ("bumps.phi_hat.self_s", "s", "lower"),
       ("arithmetic.torus_delta.calls", "count", "lower"),
       ("arithmetic.torus_delta.self_s", "s", "lower")]
    + [(f"operators.{f}.self_s", "s", "lower")
       for f in ("bourgain_growth_report", "single_l_report",
                 "oscillatory_growth_report", "norm_probe", "carleson_max")]
    + [("operators.kernel_taps.calls", "count", "lower"),
       ("operators.kernel_taps.self_s", "s", "lower")]
    + [(f"arithmetic.{f}.self_s", "s", "lower")
       for f in ("odd_q_modulus_deviation", "gauss_decay_scan",
                 "find_box_overlaps")]
    + [("arithmetic.gauss_row.calls", "count", "lower"),
       ("arithmetic.gauss_row.self_s", "s", "lower"),
       ("arithmetic.gauss_row.points", "count", "lower"),
       ("arithmetic.square_class_reps.self_s", "s", "lower"),
       ("arithmetic.gauss_sum.calls", "count", "lower"),
       ("arithmetic.gauss_sum.distinct_ratio", "ratio", "higher"),
       ("arithmetic.enumerate_shell.calls", "count", "lower"),
       ("arithmetic.enumerate_shell.self_s", "s", "lower")]
    + [(f"lambda_sets.{f}.self_s", "s", "lower")
       for f in ("cantor_set", "cover", "lambda_set_to_json",
                 "certificate_to_json")]
    + [("cli.main.calls", "count", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("cli.artifact_bytes", "B", "lower"),
       ("bench.op.self_s", "s", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.ops_per_s", "1/s", "higher"),
       ("trace.untraced_ops_per_s", "1/s", "higher"),
       ("trace.overhead", "ratio", "lower")]
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, bad references)."""


def pin_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc (default 1) and FFT workers at 1.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        val = os.environ.get(var, "")
        if not val.isdigit() or not 1 <= int(val) <= nproc:
            os.environ[var] = "1"
    os.environ["CARLESONLAB_WORKERS"] = "1"


def import_package():
    """Import carlesonlab and all its modules from this checkout's src/ only."""
    pkg = SRC / "carlesonlab"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no carlesonlab package at {pkg}")
    sys.path.insert(0, str(SRC))
    import carlesonlab
    import carlesonlab.cli  # noqa: F401  (the package does not import it)
    if Path(carlesonlab.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"carlesonlab imported from {carlesonlab.__file__}, "
                         f"not from {pkg}")
    return carlesonlab


def environment(fft_workers: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "cpu_model": cpu, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "fft_workers": fft_workers}
    for var in ("CARLESONLAB_WORKERS",) + THREAD_VARS:
        env[var] = os.environ.get(var)
    return env


def setup_probe(workload: str) -> dict:
    """Import the package and warm the workload up in this fresh process."""
    t0 = perf_counter()
    lab = import_package()
    t1 = perf_counter()
    import workloads as wl
    scratch = OUT / f"scratch-{os.getpid()}"
    ctx = wl.Context(lab=lab, scratch=scratch)
    try:
        t2 = perf_counter()
        first = wl.warm_up(ctx, workload)
        t3 = perf_counter()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"setup_s": (t1 - t0) + (t3 - t2), "import_s": t1 - t0,
            "warm_up_s": t3 - t2, "psi_hat_first_call_s": first}


def fresh_setups(workload: str, n: int) -> list:
    """setup_probe in n fresh processes, one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up process failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text())["ops"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read {REFERENCES}: {exc}")


def execute(wl, ctx, op, refs: dict, span=None):
    """Run one op and check it: (seconds, failure message or None)."""
    t0 = perf_counter()
    try:
        if span is None:
            raw = wl.call(ctx, op)
        else:
            with span:
                raw = wl.call(ctx, op)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return perf_counter() - t0, f"{op.key}: raised {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    try:
        got = wl.outputs(ctx, op, raw)
    except Exception as exc:  # malformed result: counted as failed
        return dt, f"{op.key}: outputs unreadable: {type(exc).__name__}: {exc}"
    if op.key not in refs:
        return dt, f"{op.key}: no reference"
    bad = wl.mismatches(got, refs[op.key])
    return dt, (f"{op.key}: " + "; ".join(bad[:3])) if bad else None


def latency_stats(records: list) -> dict:
    lat = sorted(dt for dt, _ in records)
    n = len(lat)
    if n > 10:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = lat[-1], 100.0
    return {"n": n, "p50": statistics.median(lat), "tail": tail, "tail_pct": pct}


def report_failures(records: list) -> int:
    failed = [msg for _, msg in records if msg is not None]
    for msg in failed[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    return len(failed)


def run_untraced(wl, ctx, refs: dict, workload: str, seed: int,
                 seconds: float) -> tuple:
    """Whole cycles until the ops have taken `seconds`: (records, elapsed, cycles)."""
    records, elapsed, n_cycles = [], 0.0, 0
    for cycle in wl.cycles(workload, seed):
        for op in cycle:
            records.append(execute(wl, ctx, op, refs))
            elapsed += records[-1][0]
        n_cycles += 1
        if elapsed >= seconds:
            break
    return records, elapsed, n_cycles


def measure_untraced(args, wl, ctx, refs, first_psi_hat, setups) -> dict:
    records, elapsed, n_cycles = run_untraced(wl, ctx, refs, args.workload,
                                              args.seed, args.seconds)
    failed = report_failures(records)
    lat = latency_stats(records)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    metrics = {
        "ops_per_s": (lat["n"] - failed) / elapsed,
        "op_p50_s": lat["p50"],
        "op_tail_s": lat["tail"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {args.workload} seed {args.seed}: {lat['n']} ops in "
          f"{n_cycles} cycles, {elapsed:.3f} s of op time")
    for name, unit in END_TO_END:
        note = ""
        if name == "op_tail_s":
            note = f"  (p{lat['tail_pct']:.1f} of {lat['n']} ops)"
        elif name == "setup_s":
            note = (f"  (median of {len(setups)} fresh processes: import "
                    f"{statistics.median(s['import_s'] for s in setups):.4f} s"
                    f" + warm-up {statistics.median(s['warm_up_s'] for s in setups):.4f}"
                    f" s; psi_hat first call {first_psi_hat:.4f} s)")
        print(f"  {name:<12} {metrics[name]:.6g} {unit}{note}")
    print(f"  {'fail_ratio':<12} {failed / lat['n']:.6g}  ({failed} of {lat['n']})")
    return {"attempted": lat["n"], "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}}


def measure_traced(args, wl, ctx, refs, first_psi_hat) -> dict:
    from tracer import Tracer
    n_cycles = max(1, math.ceil(args.seconds / 2.0 / wl.CYCLE_S[args.workload]))
    gen = wl.cycles(args.workload, args.seed)
    ops = [op for _ in range(n_cycles) for op in next(gen)]
    tracer = Tracer()
    plain, traced = [], []
    traced_bytes = 0
    for i, op in enumerate(ops):
        # each op runs untraced and traced; which goes first alternates, so
        # first-call costs (allocator growth, FFT plans) fall on both equally
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(execute(wl, ctx, op, refs))
                continue
            before = ctx.artifact_bytes
            tracer.install()
            try:
                traced.append(execute(wl, ctx, op, refs, tracer.op_span(i)))
            finally:
                tracer.uninstall()
            traced_bytes += ctx.artifact_bytes - before
    records = plain + traced
    failed = report_failures(records)
    cols = tracer.arrays()
    try:
        nest_err = tracer.check_nesting(cols)
    except ValueError as exc:
        print(f"FAILED trace: {exc}", file=sys.stderr)
        nest_err = math.inf
    t_plain = sum(dt for dt, _ in plain)
    t_traced = float(cols["dur"][cols["parent"] < 0].sum())
    stats = tracer.layer_stats()
    stats.update({
        "oscillatory.psi_hat.first_call_s": first_psi_hat,
        "cli.artifact_bytes": traced_bytes,
        "trace.spans": len(cols["dur"]),
        "trace.ops_per_s": len(ops) / t_traced,
        "trace.untraced_ops_per_s": len(ops) / t_plain,
        "trace.overhead": t_traced / t_plain - 1.0,
    })
    path = OUT / f"trace-{args.workload}-{args.seed}.npz"
    tracer.save(path)
    print(f"workload {args.workload} seed {args.seed} traced: {len(ops)} ops "
          f"({n_cycles} cycles) untraced {t_plain:.3f} s, traced "
          f"{t_traced:.3f} s, overhead {stats['trace.overhead']:+.2%}; "
          f"{len(cols['dur'])} spans in {path.relative_to(ROOT)}; "
          f"max |sum of self - op wall| {nest_err:.3g} s")
    metrics = {name: {"value": stats.get(name, 0), "unit": unit}
               for name, unit, _ in PER_LAYER}
    return {"attempted": len(records), "failed": failed, "metrics": metrics,
            "trace_ok": nest_err <= 1e-6}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time import + warm-up in this process and exit")
    args = ap.parse_args(argv)
    pin_threads()
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload)))
            return 0
        lab = import_package()
        refs = load_references()
        setups = [] if args.trace else fresh_setups(args.workload, SETUP_RUNS)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import scipy.fft as sfft
    import workloads as wl
    ctx = wl.Context(lab=lab, scratch=OUT / f"scratch-{os.getpid()}")
    try:
        first_psi_hat = wl.warm_up(ctx, args.workload)
        with sfft.set_workers(1):
            fft_workers = sfft.get_workers()
            if args.trace:
                result = measure_traced(args, wl, ctx, refs, first_psi_hat)
            else:
                result = measure_untraced(args, wl, ctx, refs, first_psi_hat,
                                          setups)
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    print("env " + json.dumps(environment(fft_workers), sort_keys=True))
    trace_ok = result.pop("trace_ok", True)
    correct = result["failed"] == 0 and trace_ok
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
