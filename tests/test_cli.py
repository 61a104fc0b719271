import ast
import contextlib
import hashlib
import io
import json
import math
import shlex
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from carlesonlab import cli, multiplier, operators, oscillatory
from carlesonlab.arithmetic import (ReducedRational, gauss_rows, gauss_sum,
                                    odd_q_modulus_deviation)
from carlesonlab.cli import (_COMMON, BOUNDS, COMMANDS, DEFAULTS, GATES,
                             Artifacts, _write_csv, main)
from carlesonlab.lambda_sets import (cantor_set, lambda_set_from_json,
                                     lambda_set_to_json)


def run(args):
    return main(args)


def _csv_text(tmp_path, header, columns) -> str:
    """What _write_csv writes for ``header`` and ``columns``."""
    path = tmp_path / "t.csv"
    with path.open("w") as fh:
        _write_csv(fh, header, columns)
    return path.read_text()


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

    def test_gauss_csv_is_the_loop_over_reduced_triples(self, tmp_path):
        # every reduced (Q, A, B) in (Q, A, B) order, each float as its
        # repr and |S| as Python's abs of the complex sum
        assert run(["gauss", "--qmax", "9", "-o", str(tmp_path / "g")]) == 0
        lines = (tmp_path / "g.csv").read_text().splitlines()[1:]
        triples = [(q, a, b) for q in range(1, 10) for a in range(q)
                   for b in range(q) if math.gcd(math.gcd(a, b), q) == 1]
        assert [tuple(int(v) for v in line.split(",")[:3])
                for line in lines] == triples
        for line, triple in zip(lines, triples):
            cells = line.split(",")[3:]
            re_s, im_s, abs_s = (float(v) for v in cells)
            assert cells == [repr(re_s), repr(im_s), repr(abs_s)]
            assert abs_s == abs(complex(re_s, im_s))
            assert abs(complex(re_s, im_s)
                       - gauss_sum(ReducedRational(*triple))) <= 1e-12

    def test_csv_cells_of_numpy_scalars(self, tmp_path):
        text = _csv_text(tmp_path, ["x", "y", "z"],
                         [[np.float64(0.5), 1e-17], [np.int64(3), 2],
                          [0.1, -0.0]])
        assert text == "x,y,z\n0.5,3,0.1\n1e-17,2,-0.0\n"

    def test_array_columns_render_as_their_cells(self, tmp_path):
        floats = [0.0, -0.0, 1e-17, 5e-324, 1e308, 0.1, 0.0, -0.0, 1e-17,
                  -2.5, 1e308, 0.1]
        ints = [3, -7, 0, 3, 2 ** 62, -7, 0, 12, 3, 1, 1, 0]
        mixed = [np.float64(0.5), 2, np.int64(-4), 0.25, np.float64(-0.0),
                 1e-17, 7, np.float64(0.5), 2, np.int64(-4), 0.25, 3]
        text = _csv_text(tmp_path, ["f", "i", "m"],
                         [np.array(floats), np.array(ints), mixed])
        cells = zip(map(str, floats), map(str, ints), map(str, mixed))
        assert text == "f,i,m\n" + "".join(",".join(row) + "\n"
                                           for row in cells)
        assert text.splitlines()[1:3] == ["0.0,3,0.5", "-0.0,-7,2"]

    def test_gauss_csv_is_the_row_renderer(self, tmp_path):
        for qmax in range(1, 25):
            base = tmp_path / f"g{qmax}"
            assert run(["gauss", "--qmax", str(qmax), "-o", str(base)]) == 0
            assert base.with_suffix(".csv").read_text() \
                == _gauss_csv_by_rows(qmax), qmax

    @pytest.mark.parametrize("block", [1, 7, 480, 1000, 2 ** 12])
    def test_csv_blocks_join_to_the_whole(self, tmp_path, monkeypatch, block):
        # 2^12 is the default; it and 480 end their first block inside one
        # Q's rows (Q = 25's rows are 4032..4631, Q = 12's 432..527)
        qmax = 25 if block == 2 ** 12 else 12
        monkeypatch.setattr(cli, "_CSV_ROWS", block)
        assert run(["gauss", "--qmax", str(qmax), "-o", str(tmp_path / "g")]) == 0
        text = (tmp_path / "g.csv").read_text()
        assert text == _gauss_csv_by_rows(qmax)
        if block in (480, 2 ** 12):
            lines = text.splitlines()
            assert lines[block].split(",")[0] == lines[block + 1].split(",")[0]

    def test_zero_row_csv_is_its_header(self, tmp_path):
        assert _csv_text(tmp_path, ["x", "y"], [[], np.array([])]) == "x,y\n"

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

    def test_cantor_past_the_int_to_str_digit_limit(self, tmp_path):
        # 32 points of 7776 digits each, beyond Python's 4300-digit limit
        assert run(["cantor", "--d", "6", "--depth", "5",
                    "-o", str(tmp_path / "c")]) == 0
        text = (tmp_path / "c.json").read_text()
        assert max(len(v) for v in json.loads(text)) == 2 + 6 ** 5
        assert lambda_set_from_json(text).points == cantor_set(6, 5).points

    @pytest.mark.parametrize("entry", ['"abc"', '"inf"', '"1/0"', "null",
                                       "[1]", "1e999"])
    def test_cover_rejects_a_malformed_lambda_file(self, tmp_path, capsys,
                                                   entry):
        (tmp_path / "lam.json").write_text(f'["0.5", {entry}]')
        assert run(["cover", "--input", str(tmp_path / "lam.json"),
                    "--t-exp", "3", "-o", str(tmp_path / "out" / "x")]) == 2
        assert capsys.readouterr().err.startswith("configuration error")
        assert not (tmp_path / "out").exists()

    def test_maximal_and_norm_probe(self, tmp_path):
        base = tmp_path / "mx"
        assert run(["maximal", "--cantor", "3", "3", "--length", "64",
                    "--radius-factor", "2", "-o", str(base)]) == 0
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


def _gauss_csv_by_rows(qmax: int) -> str:
    """The gauss CSV built as row tuples, each cell its ``str``."""
    rows = []
    for q in range(1, qmax + 1):
        n = np.arange(q)
        a, b = np.nonzero(np.gcd.outer(np.gcd(n, q), n) == 1)
        s = gauss_rows(n, q)[a, b]
        rows.extend(zip([q] * a.size, a.tolist(), b.tolist(), s.real.tolist(),
                        s.imag.tolist(), np.hypot(s.real, s.imag).tolist()))
    lines = ["Q,A,B,re_S,im_S,abs_S"]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


class TestParser:
    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert run(["shell", "--s", "2", "-o", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s.csv").exists()

    def test_a_parse_leaves_no_state(self, tmp_path, capsys):
        # a bad argv, a good one, then --help: each as a fresh parser
        # takes it
        bad = ["gauss", "--qmax", "x"]
        good = ["gauss", "--qmax", "3", "-o", str(tmp_path / "g")]
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(bad)
        bad_err = capsys.readouterr().err
        assert run(bad) == 2
        assert capsys.readouterr().err == bad_err
        assert vars(cli._PARSER.parse_args(good)) \
            == vars(cli.build_parser().parse_args(good))
        assert run(good) == 0
        assert (tmp_path / "g.csv").read_text() == _gauss_csv_by_rows(3)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["shell", "--help"])
        help_out = capsys.readouterr().out
        assert run(["shell", "--help"]) == 0
        assert capsys.readouterr().out == help_out


def _takes(command) -> set:
    """The flags ``command`` takes, each by its first name."""
    _, flags, _ = COMMANDS[command]
    return {names[0] for names, _ in flags + _COMMON}


def _offered_keys(command) -> set:
    """The typed config keys (output, None by default, aside) whose flags
    ``command`` takes."""
    keys = {flag[2:].replace("-", "_") for flag in _takes(command)}
    return keys & set(DEFAULTS) - {"output"}


class TestFlagTypes:
    # every (command, flag of a typed config key) pair
    _CONFIG_FLAGS = [(command, "--" + key.replace("_", "-"))
                     for command in COMMANDS for key in DEFAULTS
                     if key != "output"]

    def test_every_config_key_has_a_flag(self):
        keys = set().union(*map(_offered_keys, COMMANDS))
        assert keys == set(DEFAULTS) - {"output"}

    @pytest.mark.parametrize("command, flag", _CONFIG_FLAGS)
    def test_flag_parses_to_the_default_type(self, capsys, command, flag):
        # a flag the command offers parses to its default's type; the flag
        # of a key the command does not read is refused
        key = flag[2:].replace("-", "_")
        argv = [command, *SMALL[command], flag, "3"]
        if key in _offered_keys(command):
            args = cli._PARSER.parse_args(argv)
            assert type(getattr(args, key)) is type(DEFAULTS[key])
        else:
            with pytest.raises(SystemExit) as exc:
                cli._PARSER.parse_args(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 3" \
                in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["bourgain-growth", "--n-list", "2,x", "--grid", "64"], "--n-list"),
        (["single-l", "--l-list", "", "--grid", "256"], "--l-list"),
        (["norm-probe", "--cantor", "2", "2", "--lengths", "64,,"],
         "--lengths"),
        (["cover", "--cantor", "2", "x", "--t-exp", "3"], "--cantor"),
    ])
    def test_malformed_list_names_its_flag(self, tmp_path, capsys, argv,
                                           flag):
        assert run(argv + ["-o", str(tmp_path / "x")]) == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag, value", [
        (["single-l", "--grid", "256", "--trials", "1"], "--l-list", "-3,1"),
        (["bourgain-growth", "--grid", "64"], "--n-list", "-2,4"),
    ])
    def test_list_with_a_negative_leading_entry(self, tmp_path, capsys, argv,
                                                flag, value):
        # a list flag and its value as two tokens run as the = form does:
        # same exit, same message, same artifact bytes
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        outcomes = []
        for base, tokens in ((spaced, [flag, value]),
                             (joined, [f"{flag}={value}"])):
            base.mkdir()
            outcomes.append((run(argv + tokens + ["-o", str(base / "x")]),
                             capsys.readouterr().err.replace(str(base), "")))
        assert outcomes[0] == outcomes[1]
        names = sorted(p.name for p in spaced.iterdir())
        assert names == sorted(p.name for p in joined.iterdir())
        for name in names:
            assert (spaced / name).read_bytes() == (joined / name).read_bytes()

    def test_config_file_equals_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid": 64, "trials": 2, "seed": 3}')
        argv = ["bourgain-growth", "--n-list", "2,4"]
        assert run(argv + ["--config", str(cfg),
                           "-o", str(tmp_path / "a" / "g")]) == 0
        assert run(argv + ["--grid", "64", "--trials", "2", "--seed", "3",
                           "-o", str(tmp_path / "b" / "g")]) == 0
        for name in ("g.csv", "g.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes(), name


class _ReadRecorder(dict):
    """A resolved config that records each key read from it."""

    def __init__(self, cfg, read: set):
        super().__init__(cfg)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _readme_examples() -> list:
    """argv (after ``carlesonlab``) of each line of README's "Command
    line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.strip()]
    assert all(argv[0] == "carlesonlab" for argv in lines)
    return [argv[1:] for argv in lines]


class TestFlagSurface:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flags_are_the_keys_read(self, tmp_path, monkeypatch, command):
        # a small run reads exactly the config keys whose flags the command
        # offers (output, the artifact path, aside)
        read = set()
        resolve = cli._resolve
        monkeypatch.setattr(cli, "_resolve",
                            lambda args: _ReadRecorder(resolve(args), read))
        assert run([command, *SMALL[command],
                    "-o", str(tmp_path / "x")]) in (0, 1)
        assert read - {"output"} == _offered_keys(command)

    @pytest.mark.parametrize("argv", [
        ["single-l", "--l-list", "0,6", "--trials", "1", "--gr", "256"],
        ["gauss", "--qm", "4"],
        ["norm-probe", "--cantor", "2", "2", "--lengths", "64",
         "--radius-f", "2"],
    ])
    def test_abbreviated_flags_exit_two(self, tmp_path, capsys, argv):
        assert run(argv + ["-o", str(tmp_path / "x")]) == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" \
            in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_abbreviated_list_flag_fails_as_its_joined_form(self, tmp_path,
                                                            capsys):
        # both spellings of an abbreviated list flag meet the same refusal
        errs = []
        for tokens in (["--l-li", "-3,1"], ["--l-li=-3,1"]):
            assert run(["single-l", *tokens, "--grid", "256", "--trials", "1",
                        "-o", str(tmp_path / "x")]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert not list(tmp_path.iterdir())

    def test_radius_flag_is_gone(self, tmp_path, capsys, monkeypatch):
        # R is radius_factor * length; --radius is neither a flag nor an
        # abbreviation of --radius-factor
        def refuse(*args):
            raise AssertionError("a signal was drawn")

        monkeypatch.setattr(cli, "_gaussian", refuse)
        assert run(["maximal", "--cantor", "2", "2", "--length", "64",
                    "--radius", "128", "-o", str(tmp_path / "x")]) == 2
        assert "unrecognized arguments: --radius 128" \
            in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", _readme_examples(),
                             ids=lambda argv: " ".join(argv[:2]))
    def test_readme_example_parses(self, argv):
        args = cli._PARSER.parse_args(cli._joined_lists(argv))
        assert args.command == argv[0]


def test_pool_artifacts_match_the_recorded_digests(tmp_path):
    # the benchmark's gauss, shell and cantor ops, by their recorded digests
    refs = json.loads((Path(__file__).resolve().parents[1] / "bench"
                       / "references.json").read_text())["ops"]
    checked = 0
    for key, ref in refs.items():
        kind, _, params = key.partition(":argv=")
        argv = list(ast.literal_eval(params)) if kind == "cli" else []
        if argv[:1] not in (["gauss"], ["shell"], ["cantor"]):
            continue
        out = tmp_path / f"op{checked}"
        assert run(argv + ["-o", str(out / "out")]) == ref["exit"], key
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in sorted(out.iterdir())}
        assert digests == ref["artifacts"], key
        checked += 1
    assert checked == 16


def _beyond(key) -> list:
    """The values one step past each finite end of ``key``'s BOUNDS range."""
    lo, hi = BOUNDS[key]
    return [v for v in (lo - 1, hi + 1) if math.isfinite(v)]


# (key, value, valid): each finite end of a BOUNDS range, and one step past
# it
_BOUND_CASES = [(key, val, True) for key, ends in BOUNDS.items()
                for val in ends if math.isfinite(val)] \
    + [(key, val, False) for key in BOUNDS for val in _beyond(key)]


# (command, gate, check): each CLI check that reads a gate; every check
# passes on the command's SMALL run (below) as it stands
_GATED_CHECKS = [
    ("gauss", "odd_q_modulus_deviation", "odd_q_modulus_law"),
    ("approx-error", "ej_decay_slope", "ej_decay_slope"),
    ("approx-error", "major_arc_slope", "major_arc_slope"),
    ("norm-probe", "norm_probe_top_growth", "top_growth_below_10pct"),
    ("bourgain-growth", "bourgain_largest_step",
     "ratio_over_log2N_non_increasing"),
    ("single-l", "single_l_slope", "single_l_decay_slope"),
]


class TestExitCodes:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_qmax_cap(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(cli, "gauss_rows", refuse)
        assert run(["gauss", "--qmax", "257", "-o", str(tmp_path / "x")]) == 2
        assert "qmax must lie in [1, 256], got 257" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, rest", [
        ("cover", ["--t-exp", "2"]),
        ("maximal", ["--length", "32"]),
        ("norm-probe", ["--lengths", "64", "--trials", "2"]),
    ])
    def test_exactly_one_lambda_source(self, tmp_path, capsys, command, rest):
        # --cantor with --input (a missing file, or a readable one), or
        # neither, exits 2 with no artifact; each alone runs
        lam = tmp_path / "lam.json"
        lam.write_text(lambda_set_to_json(cantor_set(2, 3)))
        out = tmp_path / "out"
        argv = [command, *rest, "-o", str(out / "x")]
        for source in (["--cantor", "2", "3", "--input",
                        str(tmp_path / "missing.json")],
                       ["--cantor", "2", "3", "--input", str(lam)], []):
            assert run(argv + source) == 2
            assert "provide one of --cantor D DEPTH or --input FILE" \
                in capsys.readouterr().err
            assert not out.exists()
        assert run(argv + ["--cantor", "2", "3"]) == 0
        assert run(argv + ["--input", str(lam)]) == 0

    def test_bad_epsilon(self, tmp_path, capsys):
        assert run(["multiplier-sample", "--j", "8", "--lam", "0.3",
                    "--beta", "0.4", "--epsilon", "0.5",
                    "-o", str(tmp_path / "x")]) == 2
        assert "epsilon must lie in" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
        ["multiplier-sample", "--j", "8", "--lam", "0.3", "--beta", "0.4",
         "--tol", "inf"],
        ["multiplier-sample", "--j", "8", "--lam", "0.3", "--beta", "0.4",
         "--tol", "-1"],
        ["approx-error", "--jmin", "8", "--jmax", "9", "--grid", "64",
         "--tol", "nan"],
    ])
    def test_bad_tol(self, tmp_path, capsys, argv):
        assert run(argv + ["-o", str(tmp_path / "x")]) == 2
        assert "tol must lie in" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_tol_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": 1e400}')  # parsed as infinity
        out = tmp_path / "out"
        assert run(["multiplier-sample", "--j", "8", "--lam", "0.3",
                    "--beta", "0.4", "--config", str(cfg),
                    "-o", str(out / "x")]) == 2
        assert "tol must lie in" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_report_value(self, tmp_path, capsys, monkeypatch):
        # a computed NaN is a numerical failure, not a configuration error,
        # and the message names where in the report it sits
        err = self._run_with_report(
            tmp_path, capsys, monkeypatch,
            {"per_j": [{"value": 1.0}, {"value": float("nan")}]})
        assert err.startswith("non-finite report value")
        assert "report['per_j'][1]['value']" in err

    @pytest.mark.parametrize("value, path", [
        (-math.inf, "report['value']"),
        (np.float64("inf"), "report['value']"),
        (complex(0.0, math.nan), "report['value']['im']"),
        (np.array([1.0, math.inf]), "report['value'][1]"),
    ])
    def test_infinite_report_value(self, tmp_path, capsys, monkeypatch,
                                   value, path):
        err = self._run_with_report(tmp_path, capsys, monkeypatch,
                                    {"value": value})
        assert f"{path} is not finite" in err

    @staticmethod
    def _run_with_report(tmp_path, capsys, monkeypatch, report) -> str:
        """stderr of ``shell`` made to compute ``report``; asserts exit 3
        and that no artifact was written."""
        help_text, flags, _ = COMMANDS["shell"]
        monkeypatch.setitem(COMMANDS, "shell", (
            help_text, flags,
            lambda cfg, args: Artifacts(report=report, csv=(["x"], [(1,)]))))
        assert run(["shell", "--s", "2", "-o", str(tmp_path / "x")]) == 3
        assert not list(tmp_path.iterdir())
        return capsys.readouterr().err

    def test_oversized_maximal_exits_before_its_draw(self, tmp_path, capsys,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("a signal was drawn")

        monkeypatch.setattr(cli, "_gaussian", refuse)
        assert run(["maximal", "--cantor", "2", "2", "--length", "33554432",
                    "-o", str(tmp_path / "x")]) == 2
        assert "exceeds cap" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["approx-error", "--jmin", "8", "--jmax", "8", "--grid", str(2 ** 13)],
        ["bourgain-growth", "--n-list", "2", "--grid", "256",
         "--trials", str(10 ** 12)],
        ["bourgain-growth", "--n-list", f"2,{2 ** 20}", "--grid", "256",
         "--trials", "1"],
        # 32 rows of 2^14, but an h_row transform of 2^27 points at N = 1
        ["oscillatory-growth", "--n-list", "1,4", "--grid", str(2 ** 14),
         "--trials", "1"],
        ["oscillatory-growth", "--n-list", str(10 ** 12), "--grid", "256",
         "--trials", "1"],
        ["single-l", "--l-list", "0,6", "--grid", str(2 ** 40),
         "--trials", "2"],
    ], ids=lambda argv: argv[0])
    def test_oversized_run_exits_before_it_allocates(self, tmp_path, capsys,
                                                     monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("an array was built")

        for module, name in [(operators, "_gaussian"), (operators, "_h_rows"),
                             (operators, "h_row"),
                             (operators, "_separated_theta"),
                             (multiplier, "m_j_grid")]:
            monkeypatch.setattr(module, name, refuse)
        tracemalloc.start()
        try:
            code = run(argv + ["-o", str(tmp_path / "x")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "past the cap" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert peak < 2 ** 20

    def test_l_without_a_kernel_scale(self, tmp_path, capsys):
        # grid 16 fits no scale k >= 4: the size has only the signal rows
        assert run(["single-l", "--l-list", "0", "--grid", "16",
                    "--trials", "1", "-o", str(tmp_path / "x")]) == 2
        assert "needs kernel scale k >= 4 > 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    def test_negative_boxes_per_shell(self, tmp_path, capsys):
        argv = ["approx-error", "--jmin", "8", "--jmax", "9", "--grid", "64",
                "--strata", "3"]
        assert run(argv + ["--boxes-per-shell", "-1",
                           "-o", str(tmp_path / "x")]) == 2
        assert ("boxes_per_shell must lie in [0, inf], got -1"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())
        # 0 samples no box and stays valid
        assert run(argv + ["--boxes-per-shell", "0",
                           "-o", str(tmp_path / "x")]) in (0, 1)
        assert json.loads((tmp_path / "x.json").read_text()
                          )["config"]["boxes_per_shell"] == 0

    @pytest.mark.parametrize("key, val, valid", _BOUND_CASES,
                             ids=[f"{k}={v}" for k, v, _ in _BOUND_CASES])
    def test_config_bounds(self, tmp_path, capsys, key, val, valid):
        # shell reads none of these keys, so only the bounds decide the exit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: val}))
        out = tmp_path / "out"
        code = run(["shell", "--s", "1", "--config", str(cfg),
                    "-o", str(out / "x")])
        if valid:
            assert code == 0
            rep = json.loads((out / "x.json").read_text())
            assert rep["config"][key] == val
        else:
            lo, hi = BOUNDS[key]
            assert code == 2
            assert (f"{key} must lie in [{lo}, {hi}], got {val}"
                    in capsys.readouterr().err)
            assert not out.exists()

    @pytest.mark.parametrize("lam, beta", [("inf", "0.4"), ("0.3", "-inf"),
                                           ("nan", "0.4")])
    def test_non_finite_point(self, tmp_path, capsys, lam, beta):
        # the exact phase reduction has no dyadic limbs for inf or nan
        assert run(["multiplier-sample", "--j", "12", f"--lam={lam}",
                    f"--beta={beta}", "-o", str(tmp_path / "x")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_repeated_l_has_no_slope(self, tmp_path, capsys):
        # a single distinct l fits no slope, so the check fails by name
        assert run(["single-l", "--l-list", "0,0", "--grid", "256",
                    "--trials", "1", "-o", str(tmp_path / "x")]) == 1
        assert "FAILED check: single_l_decay_slope" in capsys.readouterr().err
        rep = json.loads((tmp_path / "x.json").read_text())
        assert rep["slope_log2_ratio_vs_l"] is None

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

    @pytest.mark.parametrize("command, gate, check", _GATED_CHECKS,
                             ids=[check for *_, check in _GATED_CHECKS])
    def test_failed_check_is_named_on_stderr(self, tmp_path, capsys,
                                             monkeypatch, command, gate,
                                             check):
        # every gate is an upper bound, so a threshold of -1e9 fails it
        monkeypatch.setitem(GATES, gate, (GATES[gate][0], -1e9))
        assert run([command, *SMALL[command], "-o", str(tmp_path / "f")]) == 1
        assert f"FAILED check: {check}" in capsys.readouterr().err
        rep = json.loads((tmp_path / "f.json").read_text())
        assert rep["checks"] == {name: name != check for name in rep["checks"]}

    def test_every_gate_is_checked_or_acceptance_only(self):
        checked = [gate for _, gate, _ in _GATED_CHECKS]
        assert sorted(GATES) == sorted(checked
                                       + ["gauss_decay", "derivative_ratio"])

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ratios_finite is vacuous: a NaN ratio exits 3 "
                       "before any check is read (ROADMAP item 4 replaces it "
                       "with a measured gate)")
    def test_ratios_finite_can_fail(self, tmp_path, monkeypatch):
        nan_row = {"N": 4, "max_ratio": math.nan, "ratio_over_log2N": 1.0}
        monkeypatch.setattr(cli, "oscillatory_growth_report",
                            lambda *args: {"rows": [nan_row]})
        assert run(["oscillatory-growth", *SMALL["oscillatory-growth"],
                    "-o", str(tmp_path / "f")]) == 1

    def test_config_file_overridden_by_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"qmax": 4}')
        base = tmp_path / "q"
        assert run(["gauss", "--config", str(cfg), "--qmax", "2",
                    "-o", str(base)]) == 0
        rep = json.loads((tmp_path / "q.json").read_text())
        assert rep["config"]["qmax"] == 2

    def test_non_convergence_exits_three(self, tmp_path, capsys, monkeypatch):
        # (1e-6, 1e-3) lies in the Q = 1 box at j = 10, so l_js refines an
        # h_j quadrature, which cannot double past a 16-panel cap
        monkeypatch.setattr(oscillatory, "_HARD_PANEL_CAP", 16)
        assert run(["multiplier-sample", "--j", "10", "--lam", "0.000001",
                    "--beta", "0.001", "-o", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical non-convergence") and "16" in err
        assert not list(tmp_path.iterdir())

    def test_unexpected_error_exits_four(self, tmp_path, capsys, monkeypatch):
        help_text, flags, _ = COMMANDS["shell"]

        def broken(cfg, args):
            raise RuntimeError("runner broke")

        monkeypatch.setitem(COMMANDS, "shell", (help_text, flags, broken))
        assert run(["shell", "--s", "2", "-o", str(tmp_path / "x")]) == 4
        err = capsys.readouterr().err
        assert "runner broke" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())


class _FailingFile:
    """An open text file whose first write stores one character and then
    fails, as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:1])
        self.fh.flush()
        raise OSError("injected write failure")


def _two_pass_to_native(obj):
    """The two-pass report walk's first pass: convert, checking nothing."""
    if isinstance(obj, dict):
        return {str(k): _two_pass_to_native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_two_pass_to_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_two_pass_to_native(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, Fraction):
        return float(obj)
    return obj


def _non_finite_path(obj, path="report"):
    """Key path of the first NaN or infinity in converted ``obj``."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, val in items:
        found = _non_finite_path(val, f"{path}[{key!r}]")
        if found is not None:
            return found
    return None


def _two_pass_json(payload):
    """The oracle of cli._json_text: convert, dump, and only when the dump
    refuses a value walk the converted report again for its key path."""
    native = _two_pass_to_native(payload)
    try:
        return json.dumps(native, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError:
        path = _non_finite_path(native)
        if path is None:
            raise
        raise cli.NonFiniteReport(f"{path} is not finite") from None


def _json_outcome(to_json, payload):
    """The text, or the NonFiniteReport message, of ``to_json(payload)``."""
    try:
        return to_json(payload)
    except cli.NonFiniteReport as exc:
        return f"NonFiniteReport: {exc}"


# NaN and +-inf are planted, and floats and complex numbers draw them too;
# a key is text without digits or a small int, so keys stay distinct after
# str(), as a report's do
_REPORT_LEAVES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(), st.floats().map(np.float64),
    st.floats(width=32).map(np.float32), st.complex_numbers(),
    st.complex_numbers().map(np.complex128), st.integers(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                 max_denominator=10 ** 6),
    st.booleans(), st.none(), st.text(max_size=3),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.complex128]),
               hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)))
_REPORT_KEYS = st.one_of(st.text(alphabet="ab'\"", max_size=3),
                         st.integers(0, 9))
_REPORTS = st.dictionaries(_REPORT_KEYS, st.recursive(
    _REPORT_LEAVES, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_REPORT_KEYS, inner, max_size=3)),
    max_leaves=12), max_size=4)


@settings(max_examples=300, deadline=None)
@given(_REPORTS)
@example({"a": [(1, {"b": np.array([[0.5, np.inf]])})], 2: math.nan})
@example({"z": np.complex128(complex(1.0, -math.inf)), "x": Fraction(1, 3)})
def test_one_walk_json_matches_the_two_pass_walk(payload):
    assert _json_outcome(cli._json_text, payload) \
        == _json_outcome(_two_pass_json, payload)


class TestNoPartialArtifacts:
    def test_csv_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "x.csv").mkdir()
        assert run(["shell", "--s", "2", "-o", str(tmp_path / "x")]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
        assert not list((tmp_path / "x.csv").iterdir())

    @pytest.mark.parametrize("argv, names", [
        (["shell", "--s", "2"], ["x.json", "x.csv"]),
        (["gauss", "--qmax", "6"], ["x.json", "x.csv"]),
        (["maximal", "--cantor", "2", "3", "--length", "32"],
         ["x.signal.json", "x.json"]),
    ])
    def test_write_failure_on_each_artifact(self, tmp_path, capsys,
                                            monkeypatch, argv, names):
        assert run(argv + ["-o", str(tmp_path / "ok" / "x")]) == 0
        assert sorted(p.name for p in (tmp_path / "ok").iterdir()) \
            == sorted(names)
        real_open = Path.open
        for name in names:
            failed = []

            def failing_open(path, *args, **kwargs):
                fh = real_open(path, *args, **kwargs)
                if path.name != name:
                    return fh
                failed.append(path)
                return _FailingFile(fh)

            with monkeypatch.context() as mp:
                mp.setattr(Path, "open", failing_open)
                code = run(argv + ["-o", str(tmp_path / name / "sub" / "x")])
            assert code == 2 and failed, name
            assert "injected write failure" in capsys.readouterr().err
            assert not (tmp_path / name).exists(), name


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


# entries of the largest array of each sized command's SMALL run
_SMALL_SIZES = {
    "approx-error": 64 ** 2,
    "bourgain-growth": operators._bourgain_size([2, 4], 256, 4),
    "oscillatory-growth": operators._oscillatory_size([4, 8], 256,
                                                      DEFAULTS["k0"], 2),
    "single-l": operators._single_l_size([0, 6], 4096, 2),
}


@pytest.mark.parametrize("command", sorted(_SMALL_SIZES))
def test_array_cap_admits_a_run_of_its_size(tmp_path, monkeypatch, command):
    monkeypatch.setattr(cli, "ARRAY_CAP", _SMALL_SIZES[command] - 1)
    assert run([command, *SMALL[command], "-o", str(tmp_path / "a")]) == 2
    assert not list(tmp_path.iterdir())
    monkeypatch.setattr(cli, "ARRAY_CAP", _SMALL_SIZES[command])
    assert run([command, *SMALL[command], "-o", str(tmp_path / "b")]) in (0, 1)


def test_criterion_configs_sit_far_below_the_array_cap():
    # criteria 04/05 (G = 512), 09 and 10, the largest runs of these
    # reports; the bench pool's are smaller still
    sizes = [512 ** 2,
             operators._bourgain_size([2, 4, 8, 16, 32, 64], 8192, 100),
             operators._single_l_size([0, 2, 4, 6, 8, 10, 12], 2 ** 16, 8)]
    assert max(sizes) <= cli.ARRAY_CAP // 16


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


# ---------------------------------------------------------------------------
# exit-code fuzz: every command over its flags with bounded values (grid at
# most 2^10, trials at most 2, j at most 12, lists of at most three entries);
# out-of-range, malformed and missing values are drawn on purpose, a config
# key's out-of-range values one step past its BOUNDS range
# ---------------------------------------------------------------------------

def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _mostly(valid, invalid):
    """``valid`` 7 times in 8, else ``invalid``."""
    return st.integers(0, 7).flatmap(lambda i: invalid if i == 0 else valid)


def _past(key):
    """A flag value one step past a finite end of ``key``'s BOUNDS range."""
    return st.sampled_from([str(v) for v in _beyond(key)])


# config files each holding one key one step past its BOUNDS range
_PAST_CONFIGS = {f"past-{key}-{v}.json": json.dumps({key: v})
                 for key in BOUNDS for v in _beyond(key)}


def _int_list(lo, hi):
    valid = st.lists(st.integers(lo, hi), min_size=1, max_size=3).map(
        lambda v: ",".join(map(str, v)))
    return _mostly(valid, st.one_of(
        st.lists(st.integers(-1, hi), max_size=3).map(
            lambda v: ",".join(map(str, v))),
        st.just("2,x")))


_FLOATS = _mostly(st.floats(-2.0, 2.0).map(repr), st.sampled_from(
    ["-0.0", "1e300", "-1e300", "5e-324", "inf", "-inf", "nan", "x"]))

_LAMBDA_SOURCE = _mostly(
    st.tuples(_ints(2, 3), _ints(1, 5)).map(lambda t: ["--cantor", *t]),
    st.one_of(
        st.just([]),
        st.tuples(_ints(0, 3), _ints(-1, 5)).map(lambda t: ["--cantor", *t]),
        st.sampled_from(["lam.json", "junk.json", "missing.json"]).map(
            lambda name: ["--input", name])))

# command -> (required flags, other flags), each {flag: values}
_FUZZ_FLAGS = {
    "gauss": ({}, {"--qmax": _mostly(_ints(1, 24), _past("qmax"))}),
    "shell": ({"--s": _mostly(_ints(1, 6), st.sampled_from(["0", "17"]))},
              {}),
    "multiplier-sample": (
        {"--j": _mostly(_ints(2, 12), st.sampled_from(["-1", "0", "25"])),
         "--lam": _FLOATS, "--beta": _FLOATS}, {}),
    "approx-error": ({}, {"--strata": _mostly(
        _ints(3, 4), st.one_of(_past("strata"), _ints(1, 2)))}),
    "cantor": ({"--d": _mostly(_ints(2, 3), _ints(0, 1)),
                "--depth": _mostly(_ints(1, 6), _ints(-1, 0))}, {}),
    "cover": ({"--t-exp": _mostly(_ints(1, 6), _ints(-1, 0))},
              {"--den-cap": _mostly(_ints(1, 64), _past("den_cap"))}),
    "maximal": ({"--length": _mostly(_ints(1, 128), _ints(-1, 0))},
                {"--radius-factor": _mostly(_ints(1, 4),
                                            _past("radius_factor"))}),
    "norm-probe": ({"--lengths": _int_list(1, 128)},
                   {"--radius-factor": _mostly(_ints(1, 4),
                                               _past("radius_factor"))}),
    "bourgain-growth": ({"--n-list": _int_list(1, 8)}, {}),
    "oscillatory-growth": ({"--n-list": _int_list(1, 8)},
                           {"--k0": _mostly(_ints(2, 5), st.one_of(
                               _past("k0"), _ints(5, 9)))}),
    "single-l": ({"--l-list": _int_list(0, 8)}, {}),
}

_FUZZ_COMMON = {
    "--seed": _mostly(_ints(0, 3), _past("seed")),
    "--epsilon": _mostly(st.sampled_from(["0.05", "0.1", "0.14"]),
                         st.sampled_from(["0.2", "nan"])),
    "--tol": _mostly(st.sampled_from(["1e-10", "1e-6"]),
                     st.one_of(_past("tol"), st.sampled_from(["1e-15", "inf"]))),
    "--config": _mostly(st.just("cfg.json"), st.sampled_from(
        ["junk.json", "missing.json", *sorted(_PAST_CONFIGS)])),
}

# drawn in every run of a command that takes them: the defaults of these
# cost more than the fuzz can spend (50 trials; j up to 14 on a 512 grid
# with 4 boxes per shell)
_BOUNDED = {
    "--trials": _mostly(_ints(1, 2), _past("trials")),
    "--grid": _mostly(st.sampled_from(["64", "256", "1024"]),
                      st.one_of(_past("grid"), st.sampled_from(["16", "100"]))),
}
_BOUNDED_DECAY = {
    "--jmin": _mostly(_ints(2, 12), st.one_of(_past("jmin"), st.just("1"))),
    "--jmax": _mostly(_ints(2, 12), _past("jmax")),
    "--boxes-per-shell": _mostly(_ints(0, 1), _past("boxes_per_shell")),
    # the decay harness's cost grows with the grid
    "--grid": _mostly(st.just("64"), st.one_of(
        _past("grid"), st.sampled_from(["32", "100"]))),
}

_CONFIG = '{"qmax": 4, "trials": 2, "tol": 1e-08}'


def test_fuzz_draws_only_flags_the_command_takes():
    # so that a drawn value reaches its checks, not "unrecognized arguments"
    for command, (required, optional) in _FUZZ_FLAGS.items():
        assert {*required, *optional} <= _takes(command), command


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    required, optional = _FUZZ_FLAGS[command]
    takes = _takes(command)
    # one required flag is left out 1 time in 8; other flags 1 time in 2
    dropped = draw(_mostly(st.none(), st.sampled_from(sorted(required))))\
        if required else None
    flags = {f: v for f, v in required.items() if f != dropped}
    flags.update((f, v) for f, v in {**optional, **_FUZZ_COMMON}.items()
                 if f in takes and draw(st.booleans()))
    flags.update((f, v) for f, v in _BOUNDED.items() if f in takes)
    if command == "approx-error":
        flags.update(_BOUNDED_DECAY)
    # --flag=value, so that a value such as -inf is not read as a flag
    argv = [command] + [f"{f}={draw(v)}" for f, v in flags.items()]
    if command in ("cover", "maximal", "norm-probe"):
        argv += draw(_LAMBDA_SOURCE)
    return argv


def _in_dir(tmp: Path, arg: str) -> str:
    """A drawn file name, alone or after ``--flag=``, moved into ``tmp``."""
    flag, eq, name = arg.rpartition("=")
    return f"{flag}{eq}{tmp / name}" if name.endswith(".json") else arg


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_fuzzed_flags_exit_with_a_typed_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "lam.json").write_text(lambda_set_to_json(cantor_set(2, 3)))
        (tmp / "junk.json").write_text("{not json")
        (tmp / "cfg.json").write_text(_CONFIG)
        for name, text in _PAST_CONFIGS.items():
            (tmp / name).write_text(text)
        argv = [_in_dir(tmp, v) for v in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["-o", str(tmp / "out" / "x")])
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code in (2, 3):
            assert not (tmp / "out").exists(), argv
