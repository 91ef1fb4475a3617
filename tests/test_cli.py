"""Command-line driver tests: exit codes, formats, config layering, determinism."""

import json

import pytest

from ghzdc.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.strip().splitlines()]


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
        assert "invalid configuration: n_max must be <= 400" in err

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
        from ghzdc.protocol import decode_n

        code, out, _ = run_cli(["decode-table", "--n-users", "3"], capsys)
        assert code == 0
        for row in data_lines(out)[1:]:
            assert decode_n(row["pair"], tuple(row["signs"])).name == row["operation"]

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(["decode-table", "--n-users", "20"], capsys)
        assert code == 2
        assert "invalid configuration" in err


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
            "command": command, "schema_version": 1,
        }

    @pytest.mark.parametrize("command", sorted(ECHO_KEYS))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out
