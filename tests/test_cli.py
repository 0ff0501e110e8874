"""End-to-end CLI runs: reports, exit codes, and reproducibility."""

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from merminlab import cli
from merminlab.settings import PlanarSettings, random_planar, random_settings, save_settings

from conftest import nelder_mead_oracle


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "merminlab", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def run_json(*args):
    proc = run_cli(*args, "--no-timestamp")
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout), proc.returncode


class TestVerify:
    def test_small_sweep_passes(self):
        report, code = run_json(
            "verify", "--n-min", "3", "--n-max", "4", "--trials", "3", "--seed", "7"
        )
        assert code == 0
        assert report["overall_pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert names == {
            "chsh_square_expansion",
            "three_particle_square_expansion",
            "mermin_square_expansion",
            "planar_square_diagonal",
        }
        for check in report["checks"]:
            assert check["pass"] is True
            assert check["max_residual"] <= check["tol"]

    def test_impossible_tolerance_fails(self):
        report, code = run_json(
            "verify", "--n-min", "3", "--n-max", "3", "--trials", "2",
            "--tol", "1e-20",
        )
        assert code == 1
        assert report["overall_pass"] is False

    def test_bad_range_is_usage_error(self):
        proc = run_cli("verify", "--n-min", "2")
        assert proc.returncode == 2
        proc = run_cli("verify", "--n-min", "5", "--n-max", "4")
        assert proc.returncode == 2
        proc = run_cli("verify", "--n-max", "12")
        assert proc.returncode == 2

    def test_nine_particles_pass(self):
        report, code = run_json(
            "verify", "--n-min", "9", "--n-max", "9", "--trials", "1", "--seed", "5"
        )
        assert code == 0
        assert report["overall_pass"] is True

    def test_eleven_particles_pass(self):
        # the largest n whose B^2 stack TENSOR_LIMIT admits
        report, code = run_json("verify", "--n-max", "11", "--trials", "1")
        assert code == 0
        assert report["overall_pass"] is True
        assert max(c["n"] for c in report["checks"]) == 11

    def test_byte_identical_reruns(self):
        args = (
            "verify", "--n-min", "3", "--n-max", "3", "--trials", "2",
            "--seed", "11", "--no-timestamp",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_ten_particle_diagonal_is_relative(self):
        # the diagonal reaches 2^18 at n = 10, whose ulp is 5.8e-11: this seed's
        # dense-vs-closed-form gap read 1.6e-10 absolute, about 6e-16 relative
        report, code = run_json(
            "verify", "--n-min", "10", "--n-max", "10", "--trials", "3", "--seed", "2"
        )
        assert code == 0
        (entry,) = (c for c in report["checks"] if c["name"] == "planar_square_diagonal")
        assert entry["pass"] is True
        assert entry["max_residual"] < 1e-14

    def test_timestamp_present_by_default(self):
        proc = run_cli("verify", "--n-min", "3", "--n-max", "3", "--trials", "1")
        report = json.loads(proc.stdout)
        assert "timestamp" in report
        assert all("wall_time_s" in c for c in report["checks"])


class TestTable:
    def test_csv_rows_frozen(self):
        proc = run_cli("table", "--max-n", "6")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "n,lhv_bound,quantum_max,ratio",
            "3,2,4,2",
            "4,4,8,2",
            "5,4,16,4",
            "6,8,32,4",
        ]

    def test_single_row(self):
        proc = run_cli("table", "--max-n", "3")
        assert proc.stdout.splitlines()[1:] == ["3,2,4,2"]

    def test_json_format(self):
        report, code = run_json("table", "--max-n", "4", "--format", "json")
        assert code == 0
        assert report["rows"][-1] == {
            "n": 4, "lhv_bound": 4, "quantum_max": 8, "ratio": 2,
        }

    def test_resource_limit(self):
        proc = run_cli("table", "--max-n", "32")
        assert proc.returncode == 3
        assert "resource" in proc.stderr.lower()


class TestReduce:
    def test_documented_example(self):
        report, code = run_json("reduce", "--n", "6", "--m", "2", "--seed", "1")
        assert code == 0
        red = report["reduction"]
        assert red["factor"] == 4.0
        assert red["residual"] < 1e-10
        assert abs(red["max_abs_ratio"] - 2.0) < 1e-8
        assert abs(red["mu_max_ratio"] - 4.0) < 1e-8

    def test_contract_error(self):
        proc = run_cli("reduce", "--n", "6", "--m", "4")
        assert proc.returncode == 2

    def test_with_settings_file(self, tmp_path):
        path = tmp_path / "base.json"
        save_settings(
            path,
            PlanarSettings(tuple((0.2 * j, 0.2 * j + math.pi / 2) for j in range(5))),
        )
        report, code = run_json(
            "reduce", "--n", "5", "--m", "1", "--settings", str(path)
        )
        assert code == 0
        # maximal survivors: full max |eig| = 2^(n-1) / sqrt(2)
        assert abs(report["reduction"]["max_abs_full"] - 2**4 / math.sqrt(2)) < 1e-6

    def test_sixteen_particles_pass(self):
        report, code = run_json("reduce", "--n", "16", "--m", "3")
        assert code == 0
        assert report["overall_pass"] is True

    def test_resource_limit(self):
        proc = run_cli("reduce", "--n", "17", "--m", "3")
        assert proc.returncode == 3
        assert "resource" in proc.stderr.lower()

    def test_settings_n_mismatch(self, tmp_path):
        path = tmp_path / "base.json"
        save_settings(path, PlanarSettings(((0.0, 1.0), (0.0, 1.0))))
        proc = run_cli("reduce", "--n", "5", "--m", "1", "--settings", str(path))
        assert proc.returncode == 2

    def test_pairs_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        save_settings(path, random_settings(6, np.random.default_rng(3)))
        report, code = run_json("reduce", "--n", "6", "--m", "3", "--settings", str(path))
        assert code == 0
        assert report["overall_pass"] is True
        red = report["reduction"]
        # alternating signs +1, -1, +1: the reduced operator sits at phase pi/4
        assert red["signs"] == [1, -1, 1]
        assert red["phase_shift"] == 1
        assert "perpendicular_survivor" not in red

    def test_zero_reduced_maximum(self, tmp_path):
        # theta_j = 0 on every site makes B = 0: no ratio, and the law forces max_abs_full = 0
        path = tmp_path / "zero.json"
        save_settings(path, PlanarSettings(tuple((0.3, 0.3) for _ in range(4))))
        report, code = run_json("reduce", "--n", "4", "--m", "0", "--settings", str(path))
        assert code == 0
        red = report["reduction"]
        assert red["mu_max_ratio"] is None and red["max_abs_ratio"] is None
        residuals = {c["name"]: c["max_residual"] for c in report["checks"]}
        assert residuals["mu_max_ratio"] == residuals["max_abs_ratio"] == red["max_abs_full"]

    def test_limit_checked_before_the_draw(self, monkeypatch):
        # at n = 10^7 drawing the base angles alone took seconds
        def refuse(n, rng):
            raise AssertionError("random_planar called")

        monkeypatch.setattr(cli, "random_planar", refuse)
        code, _ = _run_in_process(["reduce", "--n", str(10**7), "--m", "1"])
        assert code == 3

    def test_every_accepted_constellation_passes(self, tmp_path):
        # default alternating signs, no perpendicular survivor, either file form
        rng = np.random.default_rng(4)
        for n in range(3, 9):
            planar, pairs = tmp_path / f"planar{n}.json", tmp_path / f"pairs{n}.json"
            save_settings(planar, random_planar(n, rng))
            save_settings(pairs, random_settings(n, rng))
            for m in range(n - 2):
                for path in (planar, pairs):
                    argv = ["reduce", "--n", str(n), "--m", str(m), "--settings", str(path)]
                    assert _run_in_process(argv + ["--no-timestamp"])[0] == 0, argv


class TestSpectrum:
    def test_planar_file(self, tmp_path):
        path = tmp_path / "planar.json"
        save_settings(
            path,
            PlanarSettings(tuple((0.0, math.pi / 2) for _ in range(3))),
        )
        report, code = run_json("spectrum", "--settings", str(path))
        assert code == 0
        assert report["n"] == 3
        assert report["max_abs_eigenvalue"] == pytest.approx(4.0)
        assert report["clusters"] == [[-4.0, 1], [0.0, 6], [4.0, 1]]
        assert "planar" not in report
        entry = next(c for c in report["checks"] if c["name"] == "spectral_max_closed_form")
        assert entry["pass"] is True
        assert entry["max_residual"] <= 1e-12

    def test_pairs_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        data = {
            "n": 2,
            "pairs": [
                {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]},
                {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]},
            ],
        }
        path.write_text(json.dumps(data))
        report, code = run_json("spectrum", "--settings", str(path))
        assert code == 0
        assert report["max_abs_eigenvalue"] == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_pairs_file_meets_closed_form_max(self, tmp_path, n):
        # max |eigenvalue|^2 against the sine closed form, even-n closing term included
        path = tmp_path / "pairs.json"
        save_settings(path, random_settings(n, np.random.default_rng(70 + n)))
        report, code = run_json("spectrum", "--settings", str(path))
        assert code == 0
        names = [c["name"] for c in report["checks"]]
        assert names == ["parseval_sum_of_squares", "spectral_max_closed_form"]
        assert all(c["pass"] for c in report["checks"])
        assert report["checks"][1]["max_residual"] <= 1e-12

    def test_resource_limit(self, tmp_path):
        path = tmp_path / "planar.json"
        save_settings(path, PlanarSettings(tuple((0.0, math.pi / 2) for _ in range(13))))
        proc = run_cli("spectrum", "--settings", str(path))
        assert proc.returncode == 3
        assert "resource" in proc.stderr.lower()

    def test_missing_file(self):
        proc = run_cli("spectrum", "--settings", "/nonexistent/file.json")
        assert proc.returncode == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "planar": [{"phi": 0.0}]}')
        proc = run_cli("spectrum", "--settings", str(path))
        assert proc.returncode == 2


    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "pairs": [{"a": [NaN, 0, 0], "b": [0, 1, 0]},'
            ' {"a": [1, 0, 0], "b": [0, 1, 0]}]}',
            '{"n": 3, "planar": 5}',
            '{"n": 2, "planar": [{"phi": NaN, "phi_prime": 0},'
            ' {"phi": 0, "phi_prime": 1}]}',
            "[" * 100_000,
        ],
        ids=["nan_component", "planar_not_a_list", "nan_phi", "deeply_nested"],
    )
    def test_bad_settings_are_contract_errors(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        commands = [("spectrum", "--settings", str(path))]
        if "pairs" not in text:
            commands.append(("reduce", "--n", "2", "--m", "1", "--settings", str(path)))
        for command in commands:
            proc = run_cli(*command)
            assert proc.returncode == 2, proc.stdout
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1


class TestLhv:
    def test_documented_example(self):
        report, code = run_json("lhv", "--n", "5")
        assert code == 0
        assert report["max_value"] == 4
        assert len(report["witness_a"]) == 5
        assert set(report["witness_a"]) <= {1, -1}

    def test_chsh_family(self):
        report, code = run_json("lhv", "--n", "2", "--family", "chsh")
        assert code == 0
        assert report["max_value"] == 2

    def test_resource_limit(self):
        proc = run_cli("lhv", "--n", "32")
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource limit:")
        assert proc.stderr.count("\n") == 1

    def test_contract_error(self):
        proc = run_cli("lhv", "--n", "1")
        assert proc.returncode == 2


class TestOptimize:
    def test_documented_example(self):
        report, code = run_json(
            "optimize", "--n", "4", "--objective", "spectral",
            "--restarts", "8", "--seed", "3",
        )
        assert code == 0
        assert abs(report["best_value"] - 64.0) < 1e-6
        assert all(abs(c) < 1e-3 for c in report["cos_included_angles"])
        assert report["overall_pass"] is True
        iterations, evaluations = report["restart_iterations"], report["restart_evaluations"]
        assert len(iterations) == len(evaluations) == 8
        assert report["iterations"] == iterations[report["best_index"]]
        # the initial simplex plus at least one evaluation per iteration
        assert all(e >= i + 4 for i, e in zip(iterations, evaluations))

    def test_ghz_objective(self):
        report, code = run_json(
            "optimize", "--n", "3", "--objective", "ghz", "--seed", "0"
        )
        assert code == 0
        assert abs(report["best_value"] - 4.0) < 1e-6

    def test_deterministic(self):
        args = (
            "optimize", "--n", "3", "--objective", "spectral",
            "--seed", "5", "--no-timestamp",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_twenty_particles_reach_the_ceiling(self):
        # the ceiling 2^38 has an ulp of 6.1e-5, so only a gap relative to it can pass
        report, code = run_json("optimize", "--n", "20", "--seed", "1")
        assert code == 0
        assert report["quantum_ceiling"] == 2.0**38
        for check in report["checks"]:
            assert check["pass"] is True
            assert check["max_residual"] <= check["tol"] <= 1e-10

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "7", "--objective", "ghz", "--restarts", "24", "--seed", "5"],
            ["--n", "8", "--restarts", "8", "--seed", "3"],
        ],
    )
    def test_report_equals_numpy_oracle_simplex(self, monkeypatch, capsys, argv):
        # restart_iterations and restart_evaluations reach the report too
        def array_nelder_mead(func, x0, *args):
            x, *rest = nelder_mead_oracle(lambda v: func(v.tolist()), np.asarray(x0), *args)
            return x.tolist(), *rest

        assert cli.main(["optimize", *argv, "--no-timestamp"]) == 0
        report = capsys.readouterr().out
        assert '"restart_evaluations"' in report
        monkeypatch.setattr("merminlab.optimize._nelder_mead", array_nelder_mead)
        assert cli.main(["optimize", *argv, "--no-timestamp"]) == 0
        assert capsys.readouterr().out == report

    def test_bad_n_is_usage_error(self):
        proc = run_cli("optimize", "--n", "2", "--objective", "spectral")
        assert proc.returncode == 2


class TestGlobalFlags:
    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_seed_overflow_rejected(self):
        proc = run_cli("verify", "--n-min", "3", "--n-max", "3", "--seed", str(2**64))
        assert proc.returncode == 2
        assert "seed must be an unsigned 64-bit integer" in proc.stderr

    @pytest.mark.parametrize(
        "command", [("table",), ("spectrum", "--settings", "s.json"), ("lhv", "--n", "3")]
    )
    def test_seed_only_where_it_is_read(self, command):
        code, stderr = _run_in_process([*command, "--seed", "1"])
        assert code == 2
        assert "unrecognized arguments: --seed" in stderr

    def test_parameters_echo_every_option(self, tmp_path):
        path = tmp_path / "planar.json"
        save_settings(path, PlanarSettings(((0.0, 1.0),) * 3))
        argv = {
            "verify": ["--n-min", "3", "--n-max", "3", "--trials", "1"],
            "table": ["--max-n", "3", "--format", "json"],
            "reduce": ["--n", "4", "--m", "1"],
            "spectrum": ["--settings", str(path)],
            "lhv": ["--n", "3"],
            "optimize": ["--n", "3", "--restarts", "1"],
        }
        (subparsers,) = (
            action
            for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(subparsers.choices) == sorted(argv)
        for name, parser in subparsers.choices.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main([name, *argv[name], "--no-timestamp"]) == 0, name
            options = [
                action.dest
                for action in parser._actions
                if action.option_strings and action.dest not in ("help", "no_timestamp")
            ]
            assert list(json.loads(out.getvalue())["parameters"]) == options, name

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, tol):
        path = tmp_path / "planar.json"
        save_settings(path, PlanarSettings(((0.0, 1.0), (0.0, 1.0))))
        for command in (
            ("verify", "--n-min", "3", "--n-max", "3", "--trials", "1"),
            ("reduce", "--n", "4", "--m", "1"),
            ("spectrum", "--settings", str(path)),
        ):
            proc = run_cli(*command, "--tol", tol)
            assert proc.returncode == 2, (command, proc.stdout)
            assert proc.stdout == ""
            assert "tolerance must be a finite number >= 0" in proc.stderr

    def test_one_parser_serves_a_sequence_of_calls(self, tmp_path):
        path = tmp_path / "planar.json"
        save_settings(path, PlanarSettings(((0.0, 1.0), (0.3, 2.0), (0.1, 1.6))))

        def run(*argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([*argv, "--no-timestamp"])
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        first = run("lhv", "--n", "5")
        assert first[0] == 0
        assert run("spectrum", "--settings", str(path))[0] == 0
        code, out, err = run("reduce", "--n", "4")
        assert (code, out) == (2, "") and "required: --m" in err
        code, out, err = run("verify", "--n-min", "5", "--n-max", "4")
        assert (code, out) == (2, "") and err.startswith("error: ")
        code, out, err = run("table", "--max-n", "32")
        assert (code, out) == (3, "") and err.startswith("resource limit: ")
        assert run("lhv", "--n", "5") == first
        # an option given once does not stay set for the next call
        reports = [run("reduce", "--n", "4", "--m", "1", *extra)[1] for extra in (["--seed", "9"], [])]
        assert [json.loads(report)["parameters"]["seed"] for report in reports] == [9, 0]
        # build_parser stays the constructor: each call makes a new parser
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._PARSER

    def test_report_layout(self, tmp_path):
        # "{", one line per top-level key with its compact value, "}"
        planar, pairs = tmp_path / "planar.json", tmp_path / "pairs.json"
        save_settings(planar, random_planar(5, np.random.default_rng(1)))
        save_settings(pairs, random_settings(4, np.random.default_rng(2)))

        def listed(value):
            if isinstance(value, (list, tuple)):
                return [listed(item) for item in value]
            if isinstance(value, dict):
                return {key: listed(item) for key, item in value.items()}
            return value

        for argv in (
            ["lhv", "--n", "5"],
            ["reduce", "--n", "6", "--m", "2", "--seed", "1"],
            ["spectrum", "--settings", str(planar)],
            ["spectrum", "--settings", str(pairs)],
            ["optimize", "--n", "3", "--restarts", "2", "--seed", "4"],
            ["verify", "--n-min", "3", "--n-max", "4", "--trials", "2", "--seed", "7"],
            ["table", "--max-n", "5", "--format", "json"],
        ):
            argv = [*argv, "--no-timestamp"]
            args = cli._PARSER.parse_args(argv)
            payload, _ = args.handler(args)
            outputs = []
            for _ in range(2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    cli.main(argv)
                outputs.append(out.getvalue())
            assert outputs[0] == outputs[1], argv
            lines = outputs[0].splitlines()
            assert len(lines) == len(payload) + 2, argv
            assert lines[0] == "{" and lines[-1] == "}", argv
            for line, key in zip(lines[1:-1], payload):
                assert line.startswith(f"  {json.dumps(key)}: "), (argv, line)
            assert json.loads(outputs[0]) == listed(payload), argv

    def test_console_script_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for sub in ("verify", "table", "reduce", "spectrum", "lhv", "optimize"):
            assert sub in proc.stdout


# ---- in-process fuzz over every subcommand --------------------------------


def _number(lo, hi):
    return st.integers(lo, hi).map(str)


_JUNK = st.sampled_from(["", "x", "nan", "-inf", "1e400", "0x10", "-0", "--seed"])
_SEED = st.sampled_from(["0", "7", str(2**64 - 1), str(2**64), "-1"])
_TOL = st.sampled_from(["0", "1e-10", "1e-20", "1", "-1", "inf", "nan"])

# (required, optional) options per subcommand, --seed only where it is read;
# sizes stay small enough that one example takes well under a second
_OPTIONS = {
    "verify": (
        {"--trials": _number(-1, 2)},
        {"--n-min": _number(1, 8), "--n-max": _number(1, 11), "--tol": _TOL, "--seed": _SEED},
    ),
    "table": ({}, {"--max-n": _number(-1, 40), "--format": st.sampled_from(["csv", "json", "xml"])}),
    "reduce": ({"--n": _number(-1, 18), "--m": _number(-2, 15)}, {"--tol": _TOL, "--seed": _SEED}),
    "spectrum": ({}, {"--tol": _TOL}),
    "lhv": ({"--n": _number(-1, 40)}, {"--family": st.sampled_from(["mermin", "chsh", "ghz"])}),
    "optimize": (
        {"--n": _number(0, 22)},
        {
            "--objective": st.sampled_from(["spectral", "ghz", "other"]),
            "--restarts": _number(-1, 2),
            "--max-iters": _number(-1, 40),
            "--seed": _SEED,
        },
    ),
}

_SETTINGS_FILES = {
    "planar.json": {"n": 3, "planar": [{"phi": 0.0, "phi_prime": 1.5}] * 3},
    "pairs.json": {"n": 2, "pairs": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}] * 2},
    "nan.json": {"n": 2, "pairs": [{"a": [1.0, 0.0, 0.0], "b": [0.0, float("nan"), 0.0]}] * 2},
    "too_big.json": {"n": 13, "planar": [{"phi": 0.0, "phi_prime": 1.5}] * 13},
    "mismatch.json": {"n": 4, "planar": [{"phi": 0.0, "phi_prime": 1.5}] * 3},
    "list.json": [1, 2, 3],
    "zero.json": {"n": 4, "planar": [{"phi": 0.3, "phi_prime": 0.3}] * 4},
    # text as it is written: the parser recurses once per bracket
    "deep.json": "[" * 100_000,
}


@pytest.fixture(scope="module")
def settings_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_settings")
    for name, data in _SETTINGS_FILES.items():
        (root / name).write_text(data if isinstance(data, str) else json.dumps(data))
    (root / "broken.json").write_text('{"n": 3, "planar": [')
    (root / "directory").mkdir()
    return root


@st.composite
def _argv(draw):
    """A subcommand line, at times with one token swapped for junk."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    required, optional = (dict(options) for options in _OPTIONS[command])
    if command in ("reduce", "spectrum"):
        names = sorted(_SETTINGS_FILES) + ["broken.json", "missing.json", "directory"]
        settings_file = st.sampled_from(names).map(lambda name: "@" + name)
        (required if command == "spectrum" else optional)["--settings"] = settings_file
    chosen = draw(st.fixed_dictionaries(required, optional=optional))
    argv = [command]
    for flag, value in chosen.items():
        argv += [flag, value]
    argv += draw(st.sampled_from([[], ["--no-timestamp"]]))
    if draw(st.integers(0, 3)) == 0:
        argv[draw(st.integers(0, len(argv) - 1))] = draw(_JUNK)
    return argv


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input with exit 2
            code = exc.code
    return code, err.getvalue()


@hyp_settings(derandomize=True, database=None, deadline=None)
@given(_argv())
# a zero reduced maximum, a settings path that cannot be read as a file, and
# a file nested too deeply to parse
@example(["reduce", "--n", "4", "--m", "0", "--settings", "@zero.json"])
@example(["spectrum", "--settings", "@directory"])
@example(["reduce", "--n", "4", "--m", "1", "--settings", "@deep.json"])
def test_cli_fuzz_exit_codes(settings_dir, argv):
    argv = [str(settings_dir / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    code, stderr = _run_in_process(argv)
    assert code in (0, 1, 2, 3), (argv, code, stderr)
    assert "Traceback" not in stderr, argv
