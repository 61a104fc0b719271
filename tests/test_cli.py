import json
from pathlib import Path

import pytest

from carlesonlab.arithmetic import odd_q_modulus_deviation
from carlesonlab.cli import CHECK_THRESHOLDS, DEFAULTS, main


def run(args):
    return main(args)


class TestCommands:
    def test_gauss(self, tmp_path):
        base = tmp_path / "g"
        assert run(["gauss", "--qmax", "16", "-o", str(base)]) == 0
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "Q,A,B,re_S,im_S,abs_S"
        row = next(l for l in lines if l.startswith("2,1,0,"))
        assert float(row.split(",")[5]) <= 1e-12  # |S(1,0,2)| = 0
        rep = json.loads((tmp_path / "g.json").read_text())
        assert rep["checks"]["odd_q_modulus_law"]

    def test_gauss_check_value_is_the_modulus_law(self, tmp_path):
        assert run(["gauss", "--qmax", "40", "-o", str(tmp_path / "g")]) == 0
        rep = json.loads((tmp_path / "g.json").read_text())
        assert rep["max_odd_modulus_deviation"] == \
            odd_q_modulus_deviation(40)["max_deviation"]

    def test_shell(self, tmp_path):
        base = tmp_path / "s"
        assert run(["shell", "--s", "2", "-o", str(base)]) == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[1] == "2,0,1"
        assert len(lines) == 12  # header + 11 triples

    def test_multiplier_sample(self, tmp_path):
        base = tmp_path / "m"
        assert run(["multiplier-sample", "--j", "8", "--lam", "0.3",
                    "--beta", "0.4", "-o", str(base)]) == 0
        rep = json.loads((tmp_path / "m.json").read_text())
        assert {"m_j", "l_js", "e_j", "config"} <= set(rep)

    def test_approx_error_small(self, tmp_path):
        base = tmp_path / "ae"
        code = run(["approx-error", "--jmin", "8", "--jmax", "11",
                    "--grid", "128", "--strata", "3", "-o", str(base)])
        assert code == 0
        rep = json.loads((tmp_path / "ae.json").read_text())
        assert rep["checks"]["ej_decay_slope"]
        assert (tmp_path / "ae.csv").exists()

    def test_cantor_and_cover(self, tmp_path):
        base = tmp_path / "c"
        assert run(["cantor", "--d", "2", "--depth", "6", "-o", str(base)]) == 0
        vals = json.loads((tmp_path / "c.json").read_text())
        assert len(vals) == 64 and vals[0] == "0"
        cov = tmp_path / "cov"
        assert run(["cover", "--cantor", "2", "6", "--t-exp", "3",
                    "-o", str(cov)]) == 0
        cert = json.loads((tmp_path / "cov.json").read_text())
        assert cert["N"] == 2
        assert max(iv["den"] for iv in cert["intervals"]) <= 4
        # cover from a lambda-set file
        cov2 = tmp_path / "cov2"
        assert run(["cover", "--input", str(tmp_path / "c.json"),
                    "--t-exp", "6", "-o", str(cov2)]) == 0

    def test_maximal_and_norm_probe(self, tmp_path):
        base = tmp_path / "mx"
        assert run(["maximal", "--cantor", "3", "3", "--length", "64",
                    "--radius", "128", "-o", str(base)]) == 0
        rep = json.loads((tmp_path / "mx.json").read_text())
        assert rep["l2_ratio"] > 0
        np_base = tmp_path / "np"
        assert run(["norm-probe", "--cantor", "3", "3",
                    "--lengths", "64,128", "--trials", "8",
                    "-o", str(np_base)]) == 0
        rep = json.loads((tmp_path / "np.json").read_text())
        assert len(rep["rows"]) == 2

    def test_growth_commands(self, tmp_path):
        bg = tmp_path / "bg"
        assert run(["bourgain-growth", "--n-list", "2,4,8", "--grid", "512",
                    "--trials", "6", "-o", str(bg)]) == 0
        assert (tmp_path / "bg.csv").exists()
        og = tmp_path / "og"
        assert run(["oscillatory-growth", "--n-list", "4,8", "--grid", "512",
                    "--trials", "2", "-o", str(og)]) == 0
        sl = tmp_path / "sl"
        assert run(["single-l", "--l-list", "0,2,4", "--grid", "4096",
                    "--trials", "3", "-o", str(sl)]) == 0
        rep = json.loads((tmp_path / "sl.json").read_text())
        assert rep["checks"]["single_l_decay_slope"]


class TestExitCodes:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_bad_epsilon(self, tmp_path):
        assert run(["gauss", "--qmax", "4", "--epsilon", "0.5",
                    "-o", str(tmp_path / "x")]) == 2

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["gauss", "--qmax", "4", "--config", str(cfg),
                    "-o", str(tmp_path / "x")]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"frobnicate": 1}')
        assert run(["gauss", "--qmax", "4", "--config", str(cfg),
                    "-o", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("text", [
        '{"epsilon": "0.1"}', '{"grid": null}', '{"tol": "1e-10"}',
        '{"qmax": 4.0}', '{"seed": true}', '{"output": 3}', '[1]',
    ])
    def test_mistyped_config_value(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run(["gauss", "--qmax", "4", "--config", str(cfg),
                    "-o", str(out / "x")]) == 2
        assert capsys.readouterr().err.startswith("configuration error")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cover", "--cantor", "2", "3", "--t-exp", "0"],
        ["cover", "--cantor", "2", "3", "--t-exp", "-1"],
        ["cantor", "--d", "4", "--depth", "12"],
        ["cantor", "--d", "3", "--depth", "16"],
    ])
    def test_out_of_range_lambda_arguments(self, tmp_path, capsys, argv):
        assert run(argv + ["-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("configuration error")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("k0", ["1", "9"])
    def test_oscillatory_scale_range(self, tmp_path, capsys, k0):
        # grid 256 fits kernel scales 2..6: k0 = 1 is below the grid cell,
        # k0 = 9 leaves an empty scale range
        assert run(["oscillatory-growth", "--n-list", "4", "--grid", "256",
                    "--k0", k0, "--trials", "1",
                    "-o", str(tmp_path / "x")]) == 2
        assert "k0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["bourgain-growth", "--n-list", "0,2", "--grid", "64"],
        ["oscillatory-growth", "--n-list", "0,4", "--grid", "256"],
    ])
    def test_growth_n_below_one(self, tmp_path, capsys, argv):
        assert run(argv + ["--trials", "1", "-o", str(tmp_path / "x")]) == 2
        assert "N must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("workers", ["x", "0"])
    def test_bad_worker_count(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv("CARLESONLAB_WORKERS", workers)
        assert run(["shell", "--s", "2", "-o", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "WORKERS" in err
        assert not list(tmp_path.iterdir())

    def test_norm_probe_length_cap(self, tmp_path, capsys):
        assert run(["norm-probe", "--cantor", "2", "2",
                    "--lengths", "8388608", "-o", str(tmp_path / "x")]) == 2
        assert "exceeds cap" in capsys.readouterr().err

    def test_missing_lambda_source(self, tmp_path):
        assert run(["norm-probe", "--lengths", "64",
                    "-o", str(tmp_path / "x")]) == 2

    def test_failing_check_exits_one(self, tmp_path, capsys):
        # a single-j run has no slope, so the decay check fails by name
        code = run(["approx-error", "--jmin", "8", "--jmax", "8",
                    "--grid", "64", "--strata", "3", "-o",
                    str(tmp_path / "f")])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED check" in err and "slope" in err

    @pytest.mark.parametrize("argv, threshold, check", [
        (["gauss", "--qmax", "8"], "odd_q_modulus_deviation_max",
         "odd_q_modulus_law"),
        (["single-l", "--l-list", "0,6", "--grid", "4096", "--trials", "2"],
         "single_l_slope_max", "single_l_decay_slope"),
    ])
    def test_failed_check_is_named_on_stderr(self, tmp_path, capsys,
                                             monkeypatch, argv, threshold,
                                             check):
        monkeypatch.setitem(CHECK_THRESHOLDS, threshold, -1e9)
        assert run(argv + ["-o", str(tmp_path / "f")]) == 1
        assert f"FAILED check: {check}" in capsys.readouterr().err
        rep = json.loads((tmp_path / "f.json").read_text())
        assert rep["checks"] == {check: False}

    def test_config_file_overridden_by_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"qmax": 4}')
        base = tmp_path / "q"
        assert run(["gauss", "--config", str(cfg), "--qmax", "2",
                    "-o", str(base)]) == 0
        rep = json.loads((tmp_path / "q.json").read_text())
        assert rep["config"]["qmax"] == 2


# one small run of each command
SMALL = {
    "gauss": ["--qmax", "12"],
    "shell": ["--s", "3"],
    "multiplier-sample": ["--j", "8", "--lam", "0.3", "--beta", "0.4"],
    "approx-error": ["--jmin", "8", "--jmax", "9", "--grid", "64",
                     "--strata", "3"],
    "cantor": ["--d", "2", "--depth", "5"],
    "cover": ["--cantor", "2", "5", "--t-exp", "3"],
    "maximal": ["--cantor", "2", "4", "--length", "64", "--seed", "42"],
    "norm-probe": ["--cantor", "3", "3", "--lengths", "64,128",
                   "--trials", "6", "--seed", "42"],
    "bourgain-growth": ["--n-list", "2,4", "--grid", "256", "--trials", "4",
                        "--seed", "42"],
    "oscillatory-growth": ["--n-list", "4,8", "--grid", "256",
                           "--trials", "2", "--seed", "42"],
    "single-l": ["--l-list", "0,6", "--grid", "4096", "--trials", "2",
                 "--seed", "42"],
}


def test_reports_embed_command_and_config(tmp_path):
    for command, flags in SMALL.items():
        if command in ("cantor", "cover"):
            continue  # their JSON is the bare payload
        base = tmp_path / command
        assert run([command, *flags, "-o", str(base)]) in (0, 1), command
        rep = json.loads(base.with_suffix(".json").read_text())
        assert rep["command"] == command
        assert set(rep["config"]) == set(DEFAULTS) - {"output"}, command


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        [command, *SMALL[command]]
        for command in ("gauss", "cover", "norm-probe", "bourgain-growth",
                        "single-l", "shell", "multiplier-sample", "cantor",
                        "maximal", "oscillatory-growth")
    ])
    def test_byte_identical_reruns(self, tmp_path, argv):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(argv + ["-o", str(out1)]) == 0
        assert run(argv + ["-o", str(out2)]) == 0
        files1 = sorted(p for p in tmp_path.iterdir() if p.stem.startswith("a"))
        for p1 in files1:
            p2 = tmp_path / ("b" + p1.name[1:])
            assert p2.exists()
            assert p1.read_bytes() == p2.read_bytes(), p1.name
