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
from dataclasses import asdict

import numpy as np

from . import __version__
from .adversary import INTERCEPT_BASES, STRATEGIES, AdversaryModel, monte_carlo_confirm
from .cavity import CANONICAL_PULSE, PulseParams, effective_model_sweep
from .protocol import Role, SessionConfig, decode_table, run_rounds, timing_error_fidelity

SCHEMA_VERSION = 1

# --model flag -> adversary kind.
MODEL_FLAGS = {strategy.flag: kind for kind, strategy in STRATEGIES.items()}
# Config key of each AdversaryModel field, where the two names differ.
_MODEL_FIELD_KEYS = {"basis": "intercept_basis"}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return value


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _epsilon_grid(text: str) -> list[float]:
    """Either 'start:stop:count' or a comma-separated list."""
    if ":" in text:
        start, stop, count = text.split(":")
        return list(np.linspace(float(start), float(stop), int(count)))
    return _float_list(text)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


# Config key (the flag name with '-' as '_') -> (default, add_argument options).
FLAGS = {
    "seed": (0, {"type": int}),
    "out": ("-", {"help": "output path, '-' for stdout"}),
    "format": ("json", {"choices": ("json", "csv")}),
    "rounds": (1000, {"type": _positive_int}),
    "p_check": (0.1, {"type": _probability}),
    "n_users": (2, {"type": int}),
    "message": (None, {"type": int, "choices": range(4),
                       "help": "fix the 2-bit message; random per round when absent"}),
    "receiver": ("bob", {"choices": ("bob", "charlie")}),
    "model": ("honest", {"choices": sorted(MODEL_FLAGS)}),
    "target_qubit": (2, {"type": int, "choices": (2, 3)}),
    "intercept_basis": ("computational", {"choices": sorted(INTERCEPT_BASES)}),
    "theta": (math.pi / 4, {"type": _finite_float}),
    "delta_over_g": ([10.0, 20.0, 40.0], {"type": _float_list}),
    "omega_over_delta": (20.0, {"type": float}),
    "n_max": (8, {"type": int}),
    "lambda_t": (math.pi / 4, {"type": float}),
    "cavity_fock": (0, {"type": int}),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghzdc", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, echoed) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with defaults (GHZDC_CONFIG also honored)")
        for key in dict.fromkeys((*COMMON, *echoed)):
            p.add_argument("--" + key.replace("_", "-"), default=None, **FLAGS[key][1])
    return parser


def _file_value(key: str, raw):
    """Parse a config-file value as its flag parses the same command-line text.

    Text flags take a JSON string; the others a JSON number, or a list for list flags.
    """
    options = FLAGS[key][1]
    parse = options.get("type")
    if isinstance(raw, str) != (parse is None):
        raise ValueError(f"config key {key!r}: {raw!r} has the wrong JSON type")
    text = ",".join(map(str, raw)) if isinstance(raw, list) else str(raw)
    try:
        value = text if parse is None else parse(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"config key {key!r}: {raw!r}: {exc}") from None
    choices = options.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"config key {key!r}: {raw!r} is not one of {list(choices)}")
    return value


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
            raise ValueError(f"unknown config key {key!r} (keys are flag names with '-' as '_')")
        if raw is not None:
            resolved[key] = _file_value(key, raw)
    for key in FLAGS:
        if getattr(args, key, None) is not None:
            resolved[key] = getattr(args, key)
    resolved["command"] = args.command
    return resolved


def _run_session(cfg: dict) -> tuple[list[dict], list[str]]:
    session = SessionConfig(
        rng_seed=cfg["seed"],
        p_check=cfg["p_check"],
        n_users=cfg["n_users"],
        receiver=Role(cfg["receiver"]),
    )
    records = run_rounds(session, cfg["rounds"], cfg["message"])
    rows = [r.to_json_dict() for r in records]
    encode_rows = [r for r in records if r.branch == "encode"]
    correct = sum(r.decoded_bits == r.message_bits for r in encode_rows)
    violations = sum(r.check.violation for r in records if r.branch == "check")
    notes = [
        f"rounds={len(records)} encode={len(encode_rows)} "
        f"decode_accuracy={correct / len(encode_rows) if encode_rows else float('nan'):.6f} "
        f"check_violations={violations}"
    ]
    return rows, notes


def _run_adversary(cfg: dict) -> tuple[list[dict], list[str]]:
    kind = MODEL_FLAGS[cfg["model"]]
    strategy = STRATEGIES[kind]
    model = AdversaryModel(kind, **{f: cfg[_MODEL_FIELD_KEYS.get(f, f)] for f in strategy.params})
    report = monte_carlo_confirm(model, cfg["rounds"], cfg["seed"])
    row = report.to_json_dict() | strategy.report(model)
    notes = [
        f"model={model.kind} analytic={report.analytic_success:.6f} "
        f"empirical={report.empirical_success:.6f} se={report.std_error:.6f}"
    ]
    return [row], notes


def _run_physics_sweep(cfg: dict) -> tuple[list[dict], list[str]]:
    pulse = PulseParams(lambda_t=cfg["lambda_t"], omega_t=CANONICAL_PULSE.omega_t)
    points = effective_model_sweep(
        cfg["delta_over_g"], cfg["omega_over_delta"], cfg["n_max"], pulse, cfg["cavity_fock"]
    )
    rows = [asdict(pt) for pt in points]
    return rows, [f"points={len(rows)}"]


def _run_timing_sweep(cfg: dict) -> tuple[list[dict], list[str]]:
    rows = [
        {"epsilon": float(eps), "fidelity": timing_error_fidelity(float(eps))}
        for eps in cfg["epsilon_grid"]
    ]
    return rows, [f"points={len(rows)}"]


def _run_decode_table(cfg: dict) -> tuple[list[dict], list[str]]:
    rows = [
        {
            "pair": pair,
            "signs": "".join(signs),
            "operation": op.name,
            "bits": format(op.bits, "02b"),
        }
        for pair, signs, op in decode_table(cfg["n_users"])
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
    """Deterministic data section: config echo first, then one row per line."""
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
    except (ValueError, OSError, json.JSONDecodeError) as exc:
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
    except OSError as exc:
        print(f"ghzdc: cannot write output: {exc}", file=sys.stderr)
        return 3
    duration = time.monotonic() - started
    for note in notes:
        print(f"ghzdc: {note}", file=sys.stderr)
    print(f"ghzdc: version={__version__} duration={duration:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
