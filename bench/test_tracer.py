"""Tests of the benchmark's tracer, schedules and reference checks.

    python3 -m pytest -q bench/test_tracer.py

The tracer must see every call (two exact call counts) and leave no trace
behind: uninstalling restores the original function objects, and traced
runs return the same results and write the same CLI artifacts.
"""

import json
import math
import sys

import pytest

import run

run.pin_threads()
lab = run.import_package()

import workloads as wl  # noqa: E402  (needs the package on sys.path)
from tracer import TRACED, Tracer, package_modules  # noqa: E402


def traced_call(fn, *args, **kwargs):
    """fn(*args, **kwargs) as op 0 under a fresh tracer: (result, tracer)."""
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op_span(0):
            out = fn(*args, **kwargs)
    finally:
        tracer.uninstall()
    return out, tracer


def bindings() -> dict:
    return {(mod.__name__, attr): val for mod in package_modules()
            for attr, val in vars(mod).items() if callable(val)}


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr in (("carlesonlab.oscillatory", "h_j"),
                          ("carlesonlab.multiplier", "h_j"),
                          ("carlesonlab.operators", "h_row"),
                          ("carlesonlab.operators", "phi_hat"),
                          ("carlesonlab.operators", "torus_delta"),
                          ("carlesonlab", "m_j")):
            now = getattr(sys.modules[mod], attr)
            assert now is not before[(mod, attr)]
            assert now.__wrapped__ is before[(mod, attr)]
        wrapped = {(mod.__name__, attr) for mod, attr, _ in tracer.patched}
        for modname, funcs in TRACED.items():
            for fname in funcs:
                assert (f"carlesonlab.{modname}", fname) in wrapped
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("j, grid", [(8, None), (12, (64, 3))])
def test_m_j_calls_in_one_scale_decay_report(j, grid):
    mult = lab.multiplier
    spec = mult.GridSpec(*grid) if grid else mult.GridSpec()
    kwargs = dict(epsilon=0.1, grid=spec, n_derivative_samples=50,
                  major_strata=3, seed=20240901)
    plain = mult.decay_report([j], **kwargs)
    rep, tracer = traced_call(mult.decay_report, [j], **kwargs)
    assert rep == plain
    n_dec = sum(len(lab.arithmetic.enumerate_shell(s))
                for s in range(1, math.floor(0.1 * j) + 1))
    n_other = rep["per_j"][0]["n_boxes_sampled"] - n_dec
    expected = spec.strata ** 2 * n_dec + 3 ** 2 * n_other + 2 * 50
    stats = tracer.layer_stats()
    assert stats["multiplier.m_j.calls"] == expected
    assert stats["multiplier.m_j.terms"] == expected * (2 ** j - 2 ** (j - 2) + 1)
    if j == 8:
        assert (n_dec, n_other, expected) == (0, 13, 217)
    assert tracer.check_nesting() < 1e-9


def test_h_row_calls_in_single_l_report():
    args = ([0, 2, 4], 1024)
    plain = lab.operators.single_l_report(*args, trials=2, seed=5)
    rep, tracer = traced_call(lab.operators.single_l_report, *args,
                              trials=2, seed=5)
    assert rep == plain
    stats = tracer.layer_stats()
    assert stats["oscillatory.h_row.calls"] == sum(r["n_lambda"] for r in rep["rows"])
    assert stats["oscillatory.h_row.grid_points"] == 1024 * stats["oscillatory.h_row.calls"]


def test_self_times_sum_to_op_wall_time():
    tracer = Tracer()
    tracer.install()
    try:
        for i, qmax in enumerate((41, 63)):
            with tracer.op_span(i):
                lab.arithmetic.gauss_decay_scan(qmax)
    finally:
        tracer.uninstall()
    cols = tracer.arrays()
    assert tracer.check_nesting(cols) < 1e-9
    roots = cols["parent"] < 0
    assert roots.sum() == 2
    assert abs(cols["self"].sum() - cols["dur"][roots].sum()) < 1e-9


def test_spans_outside_an_op_are_rejected():
    tracer = Tracer()
    tracer.install()
    try:
        lab.arithmetic.gauss_row(1, 5)
    finally:
        tracer.uninstall()
    with pytest.raises(ValueError):
        tracer.check_nesting()


def test_tracing_changes_no_cli_artifact(tmp_path):
    refs = json.loads(run.REFERENCES.read_text())["ops"]
    ctx = wl.Context(lab=lab, scratch=tmp_path)
    for pool in wl.C11:
        op = pool[0]
        plain = wl.outputs(ctx, op, wl.call(ctx, op))
        raw, _ = traced_call(wl.call, ctx, op)
        assert wl.outputs(ctx, op, raw) == plain
        assert not wl.mismatches(plain, refs[op.key])


def test_references_cover_every_pool_op():
    refs = json.loads(run.REFERENCES.read_text())["ops"]
    for workload in run.WORKLOADS:
        missing = [op.key for op in wl.all_ops(workload) if op.key not in refs]
        assert not missing


def test_schedule_is_seeded_and_walks_each_pool_without_repeats():
    def first(seed, n):
        gen = wl.cycles("decay", seed)
        return [next(gen) for _ in range(n)]
    assert first(4, 3) == first(4, 3)
    assert first(4, 3) != first(5, 3)
    pool_len = len(wl.SLOTS["decay"][0])
    ops = [op for cycle in first(4, pool_len) for op in cycle]
    assert len(set(ops)) == len(ops)


def test_mismatches_apply_the_stated_tolerance():
    assert not wl.mismatches({"x": 1.0 + 5e-8, "n": 3}, {"x": 1.0, "n": 3})
    assert wl.mismatches({"x": 1.0 + 1e-6}, {"x": 1.0})
    assert wl.mismatches({"n": 4}, {"n": 3})
    assert wl.mismatches({"exit": 0, "artifacts": {"a": "ff"}},
                         {"exit": 0, "artifacts": {"a": "fe"}})
    assert wl.mismatches({"w": [[1, 2]]}, {"w": [[1, 3]]})


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


def test_counts_accumulate_over_repeated_installs():
    tracer = Tracer()
    for i in range(2):
        tracer.install()
        try:
            with tracer.op_span(i):
                lab.arithmetic.gauss_row(1, 5)
        finally:
            tracer.uninstall()
    assert len(set(tracer.names)) == len(tracer.names)
    assert tracer.layer_stats()["arithmetic.gauss_row.calls"] == 2
