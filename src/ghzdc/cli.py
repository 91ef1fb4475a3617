"""Batch driver: protocol sessions, adversary experiments, and physics sweeps.

Subcommands: ``session``, ``adversary``, ``physics-sweep``, ``timing-sweep``,
``decode-table``.  Defaults may come from a JSON config file (``--config`` or
the ``GHZDC_CONFIG`` environment variable); explicit flags win over the file.
Data goes to ``--out`` (default stdout) as JSON lines or CSV; diagnostics go
to stderr.  The data section of a run is a pure function of the echoed
config, so identical configs reproduce identical bytes.

Exit codes: 0 success, 2 invalid configuration, 3 I/O failure, 4 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import INTERCEPT_BASIS_NAMES, MAX_USERS, MIN_ADVERSARY_ROUNDS, __version__, _check_count

SCHEMA_VERSION = 2

# Upper bounds on the counts a run accepts, checked while parsing.  They cap counts, not
# run time: a timing-sweep point costs ~11 us (~1.1 s at the bound), a physics-sweep
# point at worst, when its truncation bound never passes, grows as n_max^3 (~0.8 s at
# n_max 400), and a 2-user round costs 0.05-0.15 ms (~1-2.5 min at the bound).
MAX_GRID_POINTS = 10**5
MAX_ROUNDS = 10**6

# --model flag -> adversary kind, a key of ``adversary.STRATEGIES``.
MODEL_FLAGS = {
    "honest": "honest",
    "charlie-lies": "charlie_lies",
    "bob-lies": "bob_lies",
    "charlie-flips": "charlie_flips",
    "bob-flips": "bob_flips",
    "bob-guess": "bob_alone_guess",
    "charlie-guess": "charlie_alone_guess",
    "intercept-resend": "intercept_resend",
    "ancilla": "ancilla_attack",
}


# Characters of a rejected value that an error message shows; longer values are cut.
ECHO_CHARS = 60


def _shown(value) -> str:
    """``repr(value)`` for an error message: whole, or its first ECHO_CHARS characters and its length."""
    text = repr(value)
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def _flag_type(parse, kind: str, ok=None, bound: str = ""):
    """A flag type whose errors say what the value must be.

    Text that ``parse`` rejects gives "must be <kind>", a value for which ``ok`` is
    false "must <bound>".  argparse prints the message after the flag name, and
    a config file after its key.
    """

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {kind}, got {_shown(text)}") from None
        if ok is not None and not ok(value):
            raise argparse.ArgumentTypeError(f"must {bound}, got {_shown(text)}")
        return value

    return convert


def _numbers(text: str) -> list[float]:
    numbers = [float(part) for part in text.split(",") if part.strip()]
    if len(numbers) > MAX_GRID_POINTS:
        raise ValueError(len(numbers))
    return numbers


def _grid(text: str) -> list[float]:
    """Either 'start:stop:count' or a comma-separated list."""
    if ":" in text:
        start, stop, count = text.split(":")
        count = int(count)
        if not 0 <= count <= MAX_GRID_POINTS:  # checked before numpy allocates the grid
            raise ValueError(count)
        return list(np.linspace(float(start), float(stop), count))
    return _numbers(text)


def _count(low: int, high: int):
    """A flag type for an integer in [low, high]."""
    return _flag_type(int, "an integer", lambda v: low <= v <= high, f"lie in [{low}, {high}]")


_integer = _flag_type(int, "an integer")
_non_negative_int = _flag_type(int, "an integer", lambda v: v >= 0, "be >= 0")
_real = _flag_type(float, "a number")
_finite_float = _flag_type(float, "a number", math.isfinite, "be finite")
_probability = _flag_type(float, "a number", lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_float_list = _flag_type(_numbers, f"a comma-separated list of at most {MAX_GRID_POINTS} numbers")
_epsilon_grid = _flag_type(_grid, "'start:stop:count' with an integer count in "
                           f"[0, {MAX_GRID_POINTS}], or a comma-separated list of at most "
                           f"{MAX_GRID_POINTS} numbers")


def _one_of(values) -> dict:
    """Options of a flag that takes one of ``values``, parsed as their type and listed in --help."""
    values = list(values)
    kind = f"one of {values}"
    return {"type": _flag_type(type(values[0]), kind, values.__contains__, f"be {kind}"),
            "metavar": "{" + ",".join(map(str, values)) + "}"}


# Config key (the flag name with '-' as '_') -> (default, add_argument options).
FLAGS = {
    "seed": (0, {"type": _non_negative_int}),
    "out": ("-", {"help": "output path, '-' for stdout"}),
    "format": ("json", _one_of(("json", "csv"))),
    "rounds": (1000, {"type": _count(1, MAX_ROUNDS)}),
    "p_check": (0.1, {"type": _probability}),
    "n_users": (2, {"type": _count(2, MAX_USERS)}),
    "message": (None, _one_of(range(4))
                | {"help": "fix the 2-bit message; random per round when absent"}),
    "receiver": ("bob", _one_of(("bob", "charlie"))),
    "model": ("honest", _one_of(sorted(MODEL_FLAGS))),
    "target_qubit": (2, _one_of((2, 3))),
    "intercept_basis": ("computational", _one_of(sorted(INTERCEPT_BASIS_NAMES))),
    "theta": (math.pi / 4, {"type": _finite_float}),
    "delta_over_g": ([10.0, 20.0, 40.0], {"type": _float_list}),
    "omega_over_delta": (20.0, {"type": _real}),
    "n_max": (8, {"type": _integer}),
    "lambda_t": (math.pi / 4, {"type": _real}),
    "cavity_fock": (0, {"type": _integer}),
    "epsilon_grid": (list(np.linspace(-0.05, 0.05, 21)), {"type": _epsilon_grid}),
}

# Flags every subcommand takes, echoed only where COMMANDS lists them.
COMMON = ("seed", "out", "format")

# Subcommand -> (help, the config keys its data section echoes); it takes COMMON plus these.
COMMANDS = {
    "session": ("run protocol rounds",
                ("seed", "rounds", "p_check", "n_users", "message", "receiver")),
    "adversary": ("adversary experiment",
                  ("seed", "rounds", "model", "target_qubit", "intercept_basis", "theta")),
    "physics-sweep": ("full-vs-effective model validation sweep",
                      ("delta_over_g", "omega_over_delta", "n_max", "lambda_t", "cavity_fock")),
    "timing-sweep": ("decoding fidelity under interaction-time error", ("epsilon_grid",)),
    "decode-table": ("print the decoding map", ("n_users",)),
}

# (subcommand, config key) -> the options that replace the key's FLAGS entry for that subcommand.
COMMAND_FLAGS = {
    ("adversary", "rounds"): {"type": _count(MIN_ADVERSARY_ROUNDS, MAX_ROUNDS)},
}


def _options(command: str, key: str) -> dict:
    """The add_argument options of a config key's flag on a subcommand."""
    return COMMAND_FLAGS.get((command, key), FLAGS[key][1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghzdc", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, echoed) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with defaults (GHZDC_CONFIG also honored)")
        for key in dict.fromkeys((*COMMON, *echoed)):
            p.add_argument("--" + key.replace("_", "-"), default=None, **_options(command, key))
    return parser


def _file_value(command: str, key: str, raw):
    """Parse a config-file value as the subcommand's flag parses the same command-line text.

    Text flags, those with a text default, take a JSON string; the others a JSON
    number, or a list for list flags.
    """
    default, options = FLAGS[key][0], _options(command, key)
    if isinstance(raw, str) != isinstance(default, str):
        raise ValueError(f"config key {key!r}: {_shown(raw)} has the wrong JSON type")
    text = ",".join(map(str, raw)) if isinstance(raw, list) else str(raw)
    try:
        return options.get("type", str)(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"config key {key!r}: {_shown(raw)}: {exc}") from None


def resolve_config(args: argparse.Namespace) -> dict:
    """Layer defaults < config file < explicit flags."""
    path = args.config or os.environ.get("GHZDC_CONFIG")
    file_values = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
    resolved = {key: default for key, (default, _) in FLAGS.items()}
    for key, raw in file_values.items():
        if key not in FLAGS:
            raise ValueError(f"unknown config key {_shown(key)} (keys are flag names with '-' as '_')")
        if raw is not None:
            resolved[key] = _file_value(args.command, key, raw)
    for key in FLAGS:
        if getattr(args, key, None) is not None:
            resolved[key] = getattr(args, key)
    resolved["command"] = args.command
    return resolved


# Each runner imports the layer it runs when it is called, so a subcommand loads only what it
# runs (physics-sweep loads cavity alone), and it reads each function off its module at call
# time, so a wrapper put on the module before ``main`` runs sees every call.


def _run_session(cfg: dict) -> tuple[list[dict], list[str]]:
    from . import protocol

    session = protocol.SessionConfig(
        rng_seed=cfg["seed"],
        p_check=cfg["p_check"],
        n_users=cfg["n_users"],
        receiver=cfg["receiver"],
    )
    rows = [r.to_json_dict() for r in protocol.run_rounds(session, cfg["rounds"], cfg["message"])]
    encode_rows = [r for r in rows if r["branch"] == "encode"]
    correct = sum(r["decoded_bits"] == r["message_bits"] for r in encode_rows)
    violations = sum(r["check"]["violation"] for r in rows if r["branch"] == "check")
    notes = [
        f"rounds={len(rows)} encode={len(encode_rows)} "
        f"decode_accuracy={correct / len(encode_rows) if encode_rows else float('nan'):.6f} "
        f"check_violations={violations}"
    ]
    return rows, notes


def _run_adversary(cfg: dict) -> tuple[list[dict], list[str]]:
    from . import adversary

    kind = MODEL_FLAGS[cfg["model"]]
    strategy = adversary.STRATEGIES[kind]
    model = adversary.AdversaryModel(kind, **{field: cfg[field] for field in strategy.params})
    report = adversary.monte_carlo_confirm(model, cfg["rounds"], cfg["seed"])
    row = report.to_json_dict() | strategy.report(model)
    notes = [
        f"model={model.kind} analytic={report.analytic_success:.6f} "
        f"empirical={report.empirical_success:.6f} se={report.std_error:.6f}"
    ]
    return [row], notes


def _run_physics_sweep(cfg: dict) -> tuple[list[dict], list[str]]:
    from . import cavity

    pulse = cavity.PulseParams(lambda_t=cfg["lambda_t"], omega_t=cavity.CANONICAL_PULSE.omega_t)
    omega_over_delta, n_max = cfg["omega_over_delta"], cfg["n_max"]
    fock = cavity.FockSpace(n_max)
    fock_index = _check_count("cavity_fock", cfg["cavity_fock"], 0, n_max)  # names the config key
    rows = [
        {
            "delta_over_g": ratio,
            "omega_over_delta": omega_over_delta,
            "n_max": n_max,
            "error": cavity.validate_effective_model(
                cavity.CavityParams.from_ratios(ratio, omega_over_delta), fock, pulse, fock_index),
        }
        for ratio in cfg["delta_over_g"]
    ]
    return rows, [f"points={len(rows)}"]


def _run_timing_sweep(cfg: dict) -> tuple[list[dict], list[str]]:
    from . import protocol

    rows = [
        {"epsilon": float(eps), "fidelity": protocol.timing_error_fidelity(float(eps))}
        for eps in cfg["epsilon_grid"]
    ]
    return rows, [f"points={len(rows)}"]


def _run_decode_table(cfg: dict) -> tuple[list[dict], list[str]]:
    from . import protocol

    rows = [
        {
            "pair": pair,
            "signs": "".join(signs),
            "operation": op.name,
            "bits": format(op.value, "02b"),
        }
        for pair, signs, op in protocol.decode_table(cfg["n_users"])
    ]
    return rows, [f"rows={len(rows)}"]


RUNNERS = {
    "session": _run_session,
    "adversary": _run_adversary,
    "physics-sweep": _run_physics_sweep,
    "timing-sweep": _run_timing_sweep,
    "decode-table": _run_decode_table,
}


def render_data(echo: dict, rows: list[dict], fmt: str) -> str:
    """Deterministic data section.

    JSON lines: the config echo first, then one row per line.  CSV has no echo
    line: a header plus one row per line, list and dict cells as JSON text; no
    rows give an empty string.
    """
    if fmt == "json":
        lines = [json.dumps({"config": echo}, sort_keys=True)]
        lines += [json.dumps(row, sort_keys=True) for row in rows]
        return "\n".join(lines) + "\n"
    buffer = io.StringIO()
    if rows:
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    return buffer.getvalue()


def _csv_cell(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError, RecursionError) as exc:  # RecursionError: a too deeply nested file
        print(f"ghzdc: invalid configuration: {exc}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        rows, notes = RUNNERS[cfg["command"]](cfg)
    except ValueError as exc:
        print(f"ghzdc: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surfaced as invariant breach
        print(f"ghzdc: internal invariant breach: {exc!r}", file=sys.stderr)
        return 4
    echo = {key: cfg[key] for key in COMMANDS[cfg["command"]][1]}
    echo |= {"command": cfg["command"], "schema_version": SCHEMA_VERSION}
    data = render_data(echo, rows, cfg["format"])
    try:
        if cfg["out"] in (None, "-"):
            sys.stdout.write(data)
        else:
            with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL character
        print(f"ghzdc: cannot write output: {exc}", file=sys.stderr)
        return 3
    duration = time.monotonic() - started
    for note in notes:
        print(f"ghzdc: {note}", file=sys.stderr)
    print(f"ghzdc: version={__version__} duration={duration:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
