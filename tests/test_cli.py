"""Command-line driver tests: exit codes, formats, config layering, determinism."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ghzdc
from ghzdc.cavity import CANONICAL_PULSE, MAX_FOCK, CavityParams, FockSpace, validate_effective_model
from ghzdc.cli import COMMANDS, COMMON, FLAGS, MAX_GRID_POINTS, MAX_ROUNDS, build_parser, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.strip().splitlines()]


# One entry more than a grid may hold, as command-line text and as a config-file list.
TOO_MANY = [0] * (MAX_GRID_POINTS + 1)
TOO_MANY_TEXT = ",".join(map(str, TOO_MANY))
# A 100,000-character value for a flag that takes one of a few words.
LONG_TEXT = "x" * 100_000


def shown(value) -> str:
    """A rejected value as an error message shows it: whole up to 60 characters, else cut and measured."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


class TestSession:
    def test_honest_rounds_decode_perfectly(self, capsys):
        code, out, err = run_cli(
            ["session", "--rounds", "200", "--p-check", "0.1", "--seed", "7"], capsys
        )
        assert code == 0
        rows = data_lines(out)
        assert rows[0]["config"]["seed"] == 7
        encodes = [r for r in rows[1:] if r["branch"] == "encode"]
        checks = [r for r in rows[1:] if r["branch"] == "check"]
        assert len(encodes) + len(checks) == 200
        assert all(r["decoded_bits"] == r["message_bits"] for r in encodes)
        assert all(not r["check"]["violation"] for r in checks)
        assert "decode_accuracy=1.000000" in err

    def test_zero_rounds_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["session", "--rounds", "0"])
        assert exc.value.code == 2

    def test_fixed_message_confines_outcomes(self, capsys):
        code, out, _ = run_cli(
            ["session", "--rounds", "50", "--p-check", "0", "--seed", "3", "--message", "0"],
            capsys,
        )
        assert code == 0
        assert {r["bob_outcomes"] for r in data_lines(out)[1:]} <= {"ee", "gg"}


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["session", "--rounds", "60", "--p-check", "0.2", "--seed", "11"],
            ["adversary", "--model", "charlie-lies", "--rounds", "400", "--seed", "2"],
            ["timing-sweep", "--epsilon-grid=-0.05:0.05:11"],
            ["decode-table", "--n-users", "3"],
        ],
    )
    def test_identical_config_reproduces_bytes(self, argv, capsys, tmp_path):
        first = tmp_path / "a.out"
        second = tmp_path / "b.out"
        assert main([*argv, "--out", str(first)]) == 0
        assert main([*argv, "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


class TestAdversary:
    def test_bob_lies_report(self, capsys):
        code, out, _ = run_cli(
            ["adversary", "--model", "bob-lies", "--rounds", "2000", "--seed", "1"], capsys
        )
        assert code == 0
        rows = data_lines(out)
        report = rows[1]
        assert report["analytic_success"] == 0.75
        assert abs(report["empirical_success"] - 0.75) <= 5 * report["std_error"]

    def test_ancilla_includes_information(self, capsys):
        code, out, _ = run_cli(
            [
                "adversary",
                "--model",
                "ancilla",
                "--rounds",
                "300",
                "--seed",
                "5",
                "--theta",
                "0.785398",
            ],
            capsys,
        )
        assert code == 0
        report = data_lines(out)[1]
        assert 0.0 < report["information_bits"] < 1.0
        assert report["theta"] == pytest.approx(0.785398)

    @pytest.mark.parametrize(
        "flag, kind",
        [
            ("honest", "honest"),
            ("bob-guess", "bob_alone_guess"),
            ("charlie-guess", "charlie_alone_guess"),
            ("bob-lies", "bob_lies"),
            ("charlie-lies", "charlie_lies"),
            ("bob-flips", "bob_flips"),
            ("charlie-flips", "charlie_flips"),
            ("intercept-resend", "intercept_resend"),
            ("ancilla", "ancilla_attack"),
        ],
    )
    def test_every_model_flag_reports_its_fields(self, flag, kind, capsys):
        code, out, _ = run_cli(["adversary", "--model", flag, "--rounds", "100"], capsys)
        assert code == 0
        row = data_lines(out)[1]
        assert row["model"] == kind
        intercept = flag == "intercept-resend"
        assert (row["target_qubit"] is not None) == intercept
        assert (row["basis"] is not None) == intercept
        assert (row["theta"] is not None) == (flag == "ancilla")
        assert ("information_bits" in row) == (flag == "ancilla")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("use_file", [False, True])
    def test_non_finite_theta_exits_two(self, value, use_file, capsys, tmp_path):
        argv = ["adversary", "--model", "bob-lies", "--rounds", "100"]
        if use_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"theta": value}))  # json writes NaN / Infinity
            code, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
            assert "config key 'theta'" in err
        else:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--theta", str(value)])
            code, captured = exc.value.code, capsys.readouterr()
            out, err = captured.out, captured.err
            assert "--theta" in err
        assert code == 2
        assert out == ""
        assert "must be finite" in err


class TestSweeps:
    def test_physics_sweep_csv_columns(self, capsys):
        code, out, _ = run_cli(
            [
                "physics-sweep",
                "--delta-over-g",
                "10,20",
                "--n-max",
                "6",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta_over_g,omega_over_delta,n_max,error"
        assert len(lines) == 3
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(row["delta_over_g"]) for row in rows] == [10.0, 20.0]
        assert all(float(row["omega_over_delta"]) == 20.0 for row in rows)
        assert all(int(row["n_max"]) == 6 for row in rows)
        for row in rows:
            error = float(row["error"])
            assert 0.0 <= error <= 1.0
            params = CavityParams.from_ratios(float(row["delta_over_g"]), 20.0)
            assert error == validate_effective_model(params, FockSpace(6), CANONICAL_PULSE, 0)

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["physics-sweep", "--delta-over-g", "nan"], "delta"),
            (["physics-sweep", "--delta-over-g", "10,inf"], "delta"),
            (["physics-sweep", "--omega-over-delta", "inf"], "omega_rabi"),
            (["physics-sweep", "--lambda-t", "nan"], "lambda_t"),
            (["timing-sweep", "--epsilon-grid", "0,nan"], "epsilon"),
        ],
    )
    def test_non_finite_input_exits_two(self, argv, field, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"invalid configuration: {field} must be finite" in err

    @pytest.mark.parametrize("use_file", [False, True])
    def test_n_max_over_cap_exits_two(self, use_file, capsys, tmp_path):
        argv = ["physics-sweep", "--delta-over-g", "10"]
        if use_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n_max": 401}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--n-max", "401"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "invalid configuration: n_max must be 1..400, got 401" in err

    @pytest.mark.parametrize("use_file", [False, True])
    def test_cavity_fock_above_n_max_names_its_key(self, use_file, capsys, tmp_path):
        argv = ["physics-sweep", "--delta-over-g", "10", "--n-max", "4"]
        if use_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"cavity_fock": 9}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--cavity-fock", "9"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "invalid configuration: cavity_fock must be 0..4, got 9" in err

    def test_cavity_fock_checked_after_n_max(self, capsys):
        code, _, err = run_cli(["physics-sweep", "--n-max", "401", "--cavity-fock", "500"], capsys)
        assert code == 2
        assert "invalid configuration: n_max must be 1..400, got 401" in err

    @pytest.mark.parametrize("flag", ["--lambda-t", "--omega-over-delta", "--delta-over-g"])
    def test_unresolvable_pulse_exits_two(self, flag, capsys):
        code, out, err = run_cli(["physics-sweep", flag, "1e300"], capsys)
        assert code == 2
        assert out == ""
        assert "invalid configuration: eps*max|E|*t = " in err
        assert "exceeds 1e-06" in err

    def test_far_from_dispersive_regime_exits_zero(self, capsys):
        code, out, _ = run_cli(["physics-sweep", "--delta-over-g", "1e-300"], capsys)
        assert code == 0
        assert 0.0 <= data_lines(out)[1]["error"] <= 1.0

    def test_overflowing_dispersive_coupling_names_delta(self, capsys):
        code, out, err = run_cli(["physics-sweep", "--delta-over-g", "1e-310"], capsys)
        assert code == 2
        assert out == ""
        assert "invalid configuration: detuning delta is too small: g^2/(2 delta) overflows" in err

    def test_timing_sweep_fidelities(self, capsys):
        code, out, _ = run_cli(["timing-sweep", "--epsilon-grid", "0,0.05"], capsys)
        assert code == 0
        rows = data_lines(out)[1:]
        assert rows[0]["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert 0.99 < rows[1]["fidelity"] < 1.0


class TestDecodeTable:
    @pytest.mark.parametrize("n_users,rows", [(2, 8), (3, 16), (4, 32)])
    def test_row_counts(self, n_users, rows, capsys):
        code, out, _ = run_cli(["decode-table", "--n-users", str(n_users)], capsys)
        assert code == 0
        assert len(data_lines(out)) == rows + 1

    def test_rows_match_library_decoding(self, capsys):
        from ghzdc.protocol import decode

        code, out, _ = run_cli(["decode-table", "--n-users", "3"], capsys)
        assert code == 0
        for row in data_lines(out)[1:]:
            assert decode(row["pair"], row["signs"]).name == row["operation"]

    def test_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decode-table", "--n-users", "20"])
        assert exc.value.code == 2
        assert "argument --n-users: must lie in [2, 11], got '20'" in capsys.readouterr().err


class TestFlagErrors:
    """A bad typed value exits 2 and says what it must be, by flag or config key."""

    @pytest.mark.parametrize("command,key,text,raw,reason", [
        ("session", "seed", "1.5", 1.5, "must be an integer"),
        ("session", "rounds", "2.5", 2.5, "must be an integer"),
        ("session", "rounds", "1000001", MAX_ROUNDS + 1, "must lie in [1, 1000000]"),
        ("session", "n_users", "2.5", 2.5, "must be an integer"),
        # Ranges the library checks too, stated in the flag's own words before any work.
        ("session", "n_users", "12", 12, "must lie in [2, 11]"),
        ("decode-table", "n_users", "1", 1, "must lie in [2, 11]"),
        ("adversary", "rounds", "50", 50, "must lie in [100, 1000000]"),
        ("adversary", "rounds", "1000001", MAX_ROUNDS + 1, "must lie in [100, 1000000]"),
        ("session", "p_check", "2", 2, "must lie in [0, 1]"),
        ("adversary", "theta", "True", True, "must be a number"),
        ("physics-sweep", "delta_over_g", "1,a", [1, "a"], "must be a comma-separated list"),
        ("timing-sweep", "epsilon_grid", "1:2", ["1:2"], "must be 'start:stop:count'"),
        ("timing-sweep", "epsilon_grid", "a:b:c", ["a:b:c"], "must be 'start:stop:count'"),
        ("timing-sweep", "epsilon_grid", "1:2:-5", ["1:2:-5"], "must be 'start:stop:count'"),
        ("timing-sweep", "epsilon_grid", "0:0.1:1000000000000", ["0:0.1:1000000000000"],
         "must be 'start:stop:count' with an integer count in [0, 100000]"),
        pytest.param("physics-sweep", "delta_over_g", TOO_MANY_TEXT, TOO_MANY,
                     "must be a comma-separated list of at most 100000 numbers",
                     id="physics-sweep-delta_over_g-100001-entries"),
        pytest.param("timing-sweep", "epsilon_grid", TOO_MANY_TEXT, TOO_MANY,
                     "must be 'start:stop:count' with an integer count in [0, 100000], "
                     "or a comma-separated list of at most 100000 numbers",
                     id="timing-sweep-epsilon_grid-100001-entries"),
        ("adversary", "target_qubit", "4", 4, "must be one of [2, 3]"),
        pytest.param("session", "format", LONG_TEXT, LONG_TEXT, "must be one of ['json', 'csv']",
                     id="session-format-100000-characters"),
        pytest.param("adversary", "model", LONG_TEXT, LONG_TEXT,
                     "must be one of ['ancilla', 'bob-flips', 'bob-guess', 'bob-lies', ",
                     id="adversary-model-100000-characters"),
    ])
    @pytest.mark.parametrize("use_file", [False, True])
    def test_bad_value_names_flag_and_reason(self, command, key, text, raw, reason, use_file,
                                             capsys, tmp_path):
        if use_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: raw}))
            code, out, err = run_cli([command, "--config", str(cfg)], capsys)
            assert f"config key {key!r}: {shown(raw)}: {reason}" in err
        else:
            flag = "--" + key.replace("_", "-")
            with pytest.raises(SystemExit) as exc:
                main([command, f"{flag}={text}"])
            code, captured = exc.value.code, capsys.readouterr()
            out, err = captured.out, captured.err
            assert f"argument {flag}: {reason}" in err
        assert code == 2
        assert out == ""
        assert f"got {shown(text)}" in err
        assert len(err) < 1000  # a 100,001-entry value is not echoed whole
        assert re.search(r"(?<!\w)_[a-z]", err) is None  # no private helper name

    def test_long_value_echo_is_cut_and_measured(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon_grid": TOO_MANY}))
        code, out, err = run_cli(["timing-sweep", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "config key 'epsilon_grid': [" + "0, " * 19 + "0,... (300003 characters): must be" in err
        assert "got '" + "0," * 29 + "0... (200003 characters)" in err

    @pytest.mark.parametrize("key,echo", [
        ("sed", "'sed'"),
        ("k" * 100_000, "'" + "k" * 59 + "... (100002 characters)"),
    ])
    def test_unknown_key_is_named(self, key, echo, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code, out, err = run_cli(["session", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert f"unknown config key {echo} (keys are flag names" in err
        assert len(err) < 1000

    def test_bounds_are_inclusive(self):
        # Parse only: running this many rounds or grid points would take about a minute.
        assert build_parser().parse_args(["session", f"--rounds={MAX_ROUNDS}"]).rounds == MAX_ROUNDS
        assert build_parser().parse_args(["session", "--rounds=1"]).rounds == 1
        assert build_parser().parse_args(["adversary", "--rounds=100"]).rounds == 100
        assert build_parser().parse_args(["adversary", f"--rounds={MAX_ROUNDS}"]).rounds == MAX_ROUNDS
        for n_users in (2, 11):
            assert build_parser().parse_args(["decode-table", f"--n-users={n_users}"]).n_users == n_users
        args = build_parser().parse_args(["timing-sweep", f"--epsilon-grid=0:1:{MAX_GRID_POINTS}"])
        assert len(args.epsilon_grid) == MAX_GRID_POINTS
        longest = ",".join(["0.5"] * MAX_GRID_POINTS)
        args = build_parser().parse_args(["timing-sweep", f"--epsilon-grid={longest}"])
        assert len(args.epsilon_grid) == MAX_GRID_POINTS
        args = build_parser().parse_args(["physics-sweep", f"--delta-over-g={longest}"])
        assert len(args.delta_over_g) == MAX_GRID_POINTS


class TestConfigLayering:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rounds": 25, "seed": 9, "p_check": 0.0}))
        code, out, _ = run_cli(["session", "--config", str(cfg)], capsys)
        assert code == 0
        rows = data_lines(out)
        assert rows[0]["config"]["rounds"] == 25
        assert rows[0]["config"]["seed"] == 9
        assert len(rows) == 26

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rounds": 25, "seed": 9}))
        code, out, _ = run_cli(["session", "--config", str(cfg), "--rounds", "10"], capsys)
        assert code == 0
        assert data_lines(out)[0]["config"]["rounds"] == 10

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({"rounds": 12, "p_check": 0.0}))
        monkeypatch.setenv("GHZDC_CONFIG", str(cfg))
        code, out, _ = run_cli(["session"], capsys)
        assert code == 0
        assert data_lines(out)[0]["config"]["rounds"] == 12

    def test_malformed_config_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("not json")
        code, _, err = run_cli(["session", "--config", str(cfg)], capsys)
        assert code == 2
        assert "invalid configuration" in err

    @pytest.mark.parametrize("use_env", [False, True])
    def test_deeply_nested_config_exits_two(self, use_env, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        if use_env:
            monkeypatch.setenv("GHZDC_CONFIG", str(cfg))
            argv = ["session"]
        else:
            argv = ["session", "--config", str(cfg)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "invalid configuration" in err

    def test_bad_rounds_in_file_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"rounds": 0}))
        code, _, _ = run_cli(["session", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "values,key",
        [
            ({"rounds": "abc"}, "rounds"),
            ({"n_users": "3"}, "n_users"),
            ({"p-check": 0.9, "roundz": 5}, "p-check"),
        ],
    )
    def test_bad_file_value_names_its_key(self, values, key, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(values))
        code, _, err = run_cli(["session", "--config", str(cfg)], capsys)
        assert code == 2
        assert "invalid configuration" in err
        assert repr(key) in err

    @pytest.mark.parametrize("use_file", [False, True])
    def test_negative_seed_names_its_key(self, use_file, capsys, tmp_path):
        if use_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}))
            code, out, err = run_cli(["session", "--config", str(cfg)], capsys)
            assert "config key 'seed'" in err
        else:
            with pytest.raises(SystemExit) as exc:
                main(["session", "--seed", "-1"])
            code, captured = exc.value.code, capsys.readouterr()
            out, err = captured.out, captured.err
            assert "--seed" in err
        assert code == 2
        assert out == ""
        assert "must be >= 0" in err
        assert "expected non-negative integer" not in err

    def test_zero_seed_is_accepted(self, capsys):
        code, out, _ = run_cli(["session", "--rounds", "5", "--seed", "0"], capsys)
        assert code == 0
        assert data_lines(out)[0]["config"]["seed"] == 0


class TestIOFailure:
    def test_unwritable_output_exits_three(self, capsys, tmp_path):
        target = tmp_path / "nope" / "data.jsonl"
        code, _, err = run_cli(
            ["decode-table", "--n-users", "2", "--out", str(target)], capsys
        )
        assert code == 3
        assert "cannot write" in err


class TestSurface:
    """Every subcommand's echo keys, config-file keys and help, independent of how the CLI declares them."""

    ECHO_KEYS = {
        "session": {"seed", "rounds", "p_check", "n_users", "message", "receiver"},
        "adversary": {"seed", "rounds", "model", "target_qubit", "intercept_basis", "theta"},
        "physics-sweep": {"delta_over_g", "omega_over_delta", "n_max", "lambda_t", "cavity_fock"},
        "timing-sweep": {"epsilon_grid"},
        "decode-table": {"n_users"},
    }
    # One valid value for every config key; "out" is added per test.
    EVERY_KEY = {
        "seed": 4, "format": "json", "rounds": 100, "p_check": 0.5, "n_users": 2,
        "message": 3, "receiver": "charlie", "model": "ancilla", "target_qubit": 3,
        "intercept_basis": "y", "theta": 0.3, "delta_over_g": [10, 20],
        "omega_over_delta": 20, "n_max": 6, "lambda_t": 0.7, "cavity_fock": 1,
        "epsilon_grid": [0, 0.01],
    }

    @pytest.mark.parametrize("command", sorted(ECHO_KEYS))
    def test_default_echo_keys(self, command, capsys, monkeypatch):
        monkeypatch.delenv("GHZDC_CONFIG", raising=False)
        code, out, _ = run_cli([command], capsys)
        assert code == 0
        echo = json.loads(out.splitlines()[0])["config"]
        assert set(echo) == self.ECHO_KEYS[command] | {"command", "schema_version"}

    @pytest.mark.parametrize("command", sorted(ECHO_KEYS))
    def test_file_with_every_key_is_accepted(self, command, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        cfg = tmp_path / "every.json"
        cfg.write_text(json.dumps({**self.EVERY_KEY, "out": str(data)}))
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 0, err
        assert out == ""
        echo = json.loads(data.read_text().splitlines()[0])["config"]
        assert echo == {key: self.EVERY_KEY[key] for key in self.ECHO_KEYS[command]} | {
            "command": command, "schema_version": 2,
        }

    @pytest.mark.parametrize("command", sorted(ECHO_KEYS))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


# Text that is out of type for some flags and on a rule's edge for others.
ODD_TEXT = st.sampled_from(
    ["", " ", "x", "True", "0", "-1", "1.5", "nan", "inf", "-inf", "1e400", "1,2", "0:1:2", str(2**70)])
NUMBER_TEXT = st.one_of(st.floats(-0.5, 2.0), st.floats(allow_nan=True, allow_infinity=True)).map(repr)
LIST_TEXT = st.lists(NUMBER_TEXT, max_size=5).map(",".join)
# Count flags drawn no larger than a run of a second or so: --rounds up to 10^3 and --n-max up to 16
# in range, and one value past each bound, which the parser or the library refuses before any work.
CAPPED = {
    "rounds": st.one_of(st.integers(-2, 1000), st.just(MAX_ROUNDS + 1)).map(str),
    "n_max": st.one_of(st.integers(-2, 16), st.just(MAX_FOCK + 1)).map(str),
    "delta_over_g": LIST_TEXT,
    "epsilon_grid": st.one_of(LIST_TEXT, st.builds(
        "{}:{}:{}".format, NUMBER_TEXT, NUMBER_TEXT,
        st.one_of(st.integers(-1, 5), st.just(MAX_GRID_POINTS + 1)))),
    # A drawn path would write files; stdout is the one output.
    "out": st.just("-"),
}


def flag_text(key: str) -> st.SearchStrategy[str]:
    """Text for one flag, from its FLAGS entry: its choices, or a value of its default's type,
    or odd text."""
    default, options = FLAGS[key]
    if key in CAPPED:
        typed = CAPPED[key]
    elif "metavar" in options:
        typed = st.sampled_from(options["metavar"].strip("{}").split(","))
    elif isinstance(default, int):
        typed = st.one_of(st.integers(-3, 20), st.just(2**70)).map(str)
    else:
        typed = NUMBER_TEXT
    return st.one_of(typed, ODD_TEXT) if key != "out" else typed


@st.composite
def argv_cases(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for key in dict.fromkeys((*COMMON, *COMMANDS[command][1])):
        if draw(st.booleans()):
            argv.append(f"--{key.replace('_', '-')}={draw(flag_text(key))}")
    return argv


class TestArgvProperty:
    """Any argv built from cli.FLAGS, with values in type, out of type, at the bounds and
    non-finite, ends in exit 0 or 2 with no traceback.  Counts and grids are drawn small
    (CAPPED) so the test runs in seconds; a run at MAX_ROUNDS is a long run by design."""

    @settings(derandomize=True, max_examples=800, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=argv_cases())
    def test_exits_zero_or_two(self, argv, monkeypatch):
        monkeypatch.delenv("GHZDC_CONFIG", raising=False)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit on a rejected flag
                code = exc.code
        assert code in (0, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


# JSON values of every type: null, bools, small, huge and negative integers, floats with NaN and
# the infinities, strings, and nested lists and objects.  Small integers stop at 16, so no
# leaf turns into a costly count (--n-max 400 or --n-users 11 at --rounds 1000).
JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 16), st.sampled_from([-(2**70), 2**70, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6))
JSON_VALUE = st.recursive(JSON_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


def json_value(key: str) -> st.SearchStrategy:
    """A config-file value for one key: one of its type, counts capped as in CAPPED, or any JSON."""
    default, options = FLAGS[key]
    if key in ("rounds", "n_max"):
        typed = CAPPED[key].map(int)
    elif "metavar" in options:
        typed = st.sampled_from(options["metavar"].strip("{}").split(",")).map(
            lambda text: int(text) if text.isdigit() else text)
    elif isinstance(default, list):
        typed = st.lists(st.one_of(st.floats(-1.0, 100.0), JSON_LEAF), max_size=4)
    elif isinstance(default, int):
        typed = st.integers(-3, 20)
    elif isinstance(default, float):
        typed = st.floats(-0.5, 2.0)
    else:  # out: a path, which the test roots in a temporary directory
        typed = st.one_of(st.text(max_size=6), st.sampled_from(["", ".", "..", "a\x00b"]))
    return st.one_of(typed, JSON_VALUE)


class TestConfigFileProperty:
    """Any config file whose cli.FLAGS keys hold JSON values of every type ends in exit 0 or 2
    with no traceback.  A string ``out`` is a path under a temporary directory (at most 6
    characters, so ``..`` cannot leave it), and writing there may also fail as I/O (exit 3).
    Counts are drawn as in CAPPED, so the test runs in seconds."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(COMMANDS)),
           values=st.fixed_dictionaries({}, optional={key: json_value(key) for key in FLAGS}))
    @example(command="decode-table", values={"out": "a\x00b"})  # open() raises ValueError
    def test_exits_zero_or_two(self, command, values, tmp_path, monkeypatch):
        monkeypatch.delenv("GHZDC_CONFIG", raising=False)
        root = tmp_path / "out" / "here"
        root.mkdir(parents=True, exist_ok=True)
        path_out = isinstance(values.get("out"), str) and values["out"] != "-"
        if path_out:
            values = values | {"out": f"{root}/{values['out']}"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg)])
        assert code in ((0, 2, 3) if path_out else (0, 2)), (command, values, err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestImportFootprint:
    """Each subcommand loads only the layer it runs; ``import ghzdc.cli`` loads numpy for its grids."""

    PROTOCOL_STACK = {"ghzdc.protocol", "ghzdc.qstate", "ghzdc.adversary", "fractions"}

    @staticmethod
    def loaded_after(argv: list[str]) -> set[str]:
        env = dict(os.environ)
        src = str(Path(ghzdc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("GHZDC_CONFIG", None)
        code = ("import json, sys, ghzdc.cli; "
                "code = ghzdc.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0; "
                "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        exit_code, modules = json.loads(proc.stderr.splitlines()[-1])
        assert exit_code == 0
        return set(modules)

    def test_cli_import_loads_numpy(self):
        loaded = self.loaded_after([])
        assert "numpy" in loaded
        assert not loaded & (self.PROTOCOL_STACK | {"ghzdc.cavity"})

    def test_physics_sweep_loads_cavity_alone(self):
        argv = ["physics-sweep", "--delta-over-g", "40", "--n-max", "4", "--out", os.devnull]
        loaded = self.loaded_after(argv)
        assert "ghzdc.cavity" in loaded
        assert not loaded & self.PROTOCOL_STACK

    @pytest.mark.parametrize("argv", [
        ["session", "--rounds", "20", "--p-check", "0.5"],
        ["timing-sweep", "--epsilon-grid", "0,0.01"],
        ["decode-table"],
    ])
    def test_protocol_commands_leave_adversary_unloaded(self, argv):
        loaded = self.loaded_after([*argv, "--out", os.devnull])
        assert "ghzdc.protocol" in loaded
        assert "ghzdc.adversary" not in loaded


class TestLapackFootprint:
    """Only physics-sweep reaches LAPACK: every other subcommand runs to exit 0 with
    numpy.linalg's eigen, solve and decomposition entries patched to raise."""

    ENTRIES = ("eig", "eigh", "eigvals", "eigvalsh", "solve", "lstsq", "inv", "pinv", "tensorsolve",
               "tensorinv", "svd", "qr", "cholesky", "det", "slogdet", "matrix_rank")

    @pytest.fixture
    def lapack_calls(self, monkeypatch) -> list[str]:
        from ghzdc import adversary, cavity, protocol

        # A cached builder filled by an earlier test would hide a call; start with every cache empty.
        for module in (cavity, protocol, adversary):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        calls = []

        def refusing(name):
            def refuse(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"numpy.linalg.{name} called")
            return refuse

        for name in self.ENTRIES:
            monkeypatch.setattr(np.linalg, name, refusing(name))
        return calls

    @pytest.mark.parametrize("argv", [
        ["session", "--rounds", "50", "--p-check", "0.5"],
        ["adversary", "--model", "bob-lies", "--rounds", "100"],
        ["adversary", "--model", "intercept-resend", "--rounds", "100"],
        ["adversary", "--model", "ancilla", "--theta", "0.7854", "--rounds", "100"],
        ["decode-table"],
        ["timing-sweep"],
    ])
    def test_protocol_commands_run_without_lapack(self, argv, lapack_calls, capsys):
        code, _, err = run_cli([*argv, "--out", os.devnull], capsys)
        assert (code, lapack_calls) == (0, []), err

    def test_physics_sweep_reaches_the_patched_entries(self, lapack_calls, capsys):
        code, _, err = run_cli(["physics-sweep", "--delta-over-g", "40", "--n-max", "4"], capsys)
        assert code == 4 and "numpy.linalg.eigh called" in err
        assert lapack_calls == ["eigh"]
