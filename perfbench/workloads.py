"""The benchmark's workloads: which ghzdc CLI invocations each one makes, and
the semantic checks and exact trace counts every invocation must meet.

A workload is a list of CLI argument vectors built from the workload seed.
Each vector is run by ``ghzdc.cli.main`` in its own fresh interpreter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

# Sweep grid of the physics-sweep workload: delta/g = 10, 12, ..., 80.
SWEEP_DELTAS = [float(x) for x in range(10, 81, 2)]
SWEEP_ARGS = [
    "--delta-over-g", ",".join(str(int(d)) for d in SWEEP_DELTAS),
    "--omega-over-delta", "20",
    "--n-max", "96",
]

# Reference validation errors, one list per cavity Fock input.
PHYSICS_REFERENCE = HERE / "physics_reference.json"
PHYSICS_TOLERANCE = 1e-8

# Adversary models of adversary-mix, with the exact analytic value each must report.
ADVERSARY_RUNS = (
    (["--model", "bob-lies"], lambda theta: 0.75),
    (["--model", "intercept-resend", "--target-qubit", "2"], lambda theta: 0.25),
    (["--model", "ancilla", "--theta", "0.7854"], lambda theta: (1.0 - math.cos(theta)) / 4.0),
)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: Callable[[int], list[list[str]]]

    def work(self, argv: list[str]) -> int:
        """Rounds (session, adversary) or sweep points (physics-sweep) of one invocation."""
        if argv[0] == "physics-sweep":
            return len(flag(argv, "--delta-over-g").split(","))
        return int(flag(argv, "--rounds"))


def flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    """Value following ``name`` in an argument vector."""
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def _session(n_users: int, p_check: float, rounds: int) -> Callable[[int], list[list[str]]]:
    def invocations(seed: int) -> list[list[str]]:
        return [[
            "session", "--n-users", str(n_users), "--p-check", str(p_check),
            "--rounds", str(rounds), "--seed", str(seed),
        ]]
    return invocations


def _adversary_mix(rounds: int) -> Callable[[int], list[list[str]]]:
    def invocations(seed: int) -> list[list[str]]:
        return [
            ["adversary", *model, "--rounds", str(rounds), "--seed", str(seed)]
            for model, _ in ADVERSARY_RUNS
        ]
    return invocations


def _physics_sweep(seed: int) -> list[list[str]]:
    return [
        ["physics-sweep", *SWEEP_ARGS, "--cavity-fock", str(fock), "--seed", str(seed)]
        for fock in (0, 1)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("session-2u", _session(2, 0.3, 5000)),
        Workload("adversary-mix", _adversary_mix(2000)),
        Workload("physics-sweep", _physics_sweep),
    )
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def parse_rows(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def _check_session(argv: list[str], rows: list[dict], report: dict) -> list[str]:
    records = rows[1:]
    problems = []
    if len(records) != int(flag(argv, "--rounds")):
        problems.append(f"{len(records)} records for {flag(argv, '--rounds')} rounds")
    for record in records:
        if record["branch"] == "encode":
            if record["decoded_bits"] != record["message_bits"]:
                problems.append(f"round {record['round_index']} decoded the wrong message")
        elif record["branch"] == "check":
            if record["check"]["violation"]:
                problems.append(f"round {record['round_index']} violated a check")
        else:
            problems.append(f"round {record['round_index']} has branch {record['branch']!r}")
    return problems


def _check_adversary(argv: list[str], rows: list[dict], report: dict) -> list[str]:
    (row,) = rows[1:]
    model = argv[1:]
    expected = None
    for args, analytic in ADVERSARY_RUNS:
        if model[: len(args)] == args:
            expected = analytic(float(flag(argv, "--theta", "nan")))
    if expected is None:
        return [f"no analytic value known for {model}"]
    problems = []
    # Rational values (bob-lies, intercept-resend) are exact binary floats and
    # must match exactly; the ancilla value is a float sum, so allow its rounding.
    if not math.isclose(row["analytic_success"], expected, rel_tol=1e-12, abs_tol=0.0):
        problems.append(f"analytic {row['analytic_success']!r} != {expected!r}")
    if abs(row["empirical_success"] - row["analytic_success"]) > 5 * row["std_error"]:
        problems.append(f"empirical {row['empirical_success']} beyond 5 SE of analytic")
    if row["rounds"] != int(flag(argv, "--rounds")):
        problems.append(f"row reports {row['rounds']} rounds")
    return problems


def _check_physics(argv: list[str], rows: list[dict], report: dict) -> list[str]:
    points = rows[1:]
    reference = json.loads(PHYSICS_REFERENCE.read_text())[flag(argv, "--cavity-fock")]
    problems = []
    if len(points) != len(SWEEP_DELTAS):
        problems.append(f"{len(points)} points, expected {len(SWEEP_DELTAS)}")
    for point, delta, ref in zip(points, SWEEP_DELTAS, reference):
        error = point["error"]
        if point["delta_over_g"] != delta:
            problems.append(f"point at delta/g {point['delta_over_g']}, expected {delta}")
        if not (math.isfinite(error) and 0.0 <= error <= 1.0):
            problems.append(f"error {error!r} at delta/g {delta} is not in [0, 1]")
        elif abs(error - ref) > PHYSICS_TOLERANCE:
            problems.append(f"error {error!r} at delta/g {delta} differs from reference {ref!r}")
    if report.get("truncation_warnings", 0):
        problems.append(f"{report['truncation_warnings']} TruncationWarning(s) raised")
    return problems


CHECKS = {
    "session": _check_session,
    "adversary": _check_adversary,
    "physics-sweep": _check_physics,
}


def check_output(argv: list[str], data: bytes, report: dict) -> list[str]:
    """Problems with one invocation's exit code and data section; empty when correct."""
    if report.get("exit_code") != 0:
        return [f"exit code {report.get('exit_code')}"]
    try:
        rows = parse_rows(data)
        if not rows or "config" not in rows[0]:
            return ["data section lacks its config echo"]
        return CHECKS[argv[0]](argv, rows, report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


# ---------------------------------------------------------------------------
# Exact trace counts
# ---------------------------------------------------------------------------


def expected_counts(argv: list[str], data: bytes) -> dict[str, int]:
    """Call counts the traced run of one correct invocation must show exactly."""
    rounds = int(flag(argv, "--rounds", "0"))
    if argv[0] == "session":
        records = parse_rows(data)[1:]
        checks = sum(r["branch"] == "check" for r in records)
        n_users = int(flag(argv, "--n-users"))
        return {
            "protocol.run_session.calls": rounds,
            # One stream for the round, one for its random message.
            "protocol.round_rng.calls": rounds if flag(argv, "--message") else 2 * rounds,
            "protocol.security_check_round.calls": checks,
            "protocol.measure_decode.calls": rounds - checks,
            # Every round measures every party's qubit once.
            "qstate.measure.calls": rounds * (n_users + 1),
            "cavity.validate_effective_model.calls": 0,
        }
    if argv[0] == "adversary":
        model = flag(argv, "--model")
        measures_per_round = {"bob-lies": 3, "intercept-resend": 4, "ancilla": 3}[model]
        return {
            "adversary.monte_carlo_confirm.calls": 1,
            "protocol.round_rng.calls": rounds,
            "protocol.run_session.calls": 0,
            "qstate.measure.calls": measures_per_round * rounds,
            "protocol.security_check_round.calls": 0 if model == "bob-lies" else rounds,
            # One ancilla per Monte Carlo round, one for the analytic value and
            # one for the information_bits column.
            "adversary.attach_ancilla.calls": rounds + 2 if model == "ancilla" else 0,
        }
    points = len(flag(argv, "--delta-over-g").split(","))
    dimension = 4 * (int(flag(argv, "--n-max")) + 1)
    return {
        "cavity.validate_effective_model.calls": points,
        "cavity.full_hamiltonian.calls": points,
        "cavity.dim_cubed": points * dimension**3,
        "qstate.measure.calls": 0,
        "protocol.round_rng.calls": 0,
    }
