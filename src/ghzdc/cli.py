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
from .adversary import STRATEGIES, AdversaryModel, monte_carlo_confirm
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghzdc", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with defaults (GHZDC_CONFIG also honored)")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default=None, help="output path, '-' for stdout")
    common.add_argument("--format", choices=("json", "csv"), default=None)

    p = sub.add_parser("session", parents=[common], help="run protocol rounds")
    p.add_argument("--rounds", type=_positive_int, default=None)
    p.add_argument("--p-check", type=_probability, default=None)
    p.add_argument("--n-users", type=int, default=None)
    p.add_argument("--message", type=int, choices=range(4), default=None,
                   help="fix the 2-bit message; random per round when absent")
    p.add_argument("--receiver", choices=("bob", "charlie"), default=None)

    p = sub.add_parser("adversary", parents=[common], help="adversary experiment")
    p.add_argument("--model", choices=sorted(MODEL_FLAGS), default=None)
    p.add_argument("--rounds", type=_positive_int, default=None)
    p.add_argument("--target-qubit", type=int, choices=(2, 3), default=None)
    p.add_argument("--intercept-basis", choices=("computational", "x", "y"), default=None)
    p.add_argument("--theta", type=float, default=None)

    p = sub.add_parser("physics-sweep", parents=[common],
                       help="full-vs-effective model validation sweep")
    p.add_argument("--delta-over-g", type=_float_list, default=None)
    p.add_argument("--omega-over-delta", type=float, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--lambda-t", type=float, default=None)
    p.add_argument("--cavity-fock", type=int, default=None)

    p = sub.add_parser("timing-sweep", parents=[common],
                       help="decoding fidelity under interaction-time error")
    p.add_argument("--epsilon-grid", type=_epsilon_grid, default=None)

    p = sub.add_parser("decode-table", parents=[common], help="print the decoding map")
    p.add_argument("--n-users", type=int, default=None)
    return parser


DEFAULTS = {
    "seed": 0,
    "out": "-",
    "format": "json",
    "rounds": 1000,
    "p_check": 0.1,
    "n_users": 2,
    "message": None,
    "receiver": "bob",
    "model": "honest",
    "target_qubit": 2,
    "intercept_basis": "computational",
    "theta": math.pi / 4,
    "delta_over_g": [10.0, 20.0, 40.0],
    "omega_over_delta": 20.0,
    "n_max": 8,
    "lambda_t": math.pi / 4,
    "cavity_fock": 0,
    "epsilon_grid": list(np.linspace(-0.05, 0.05, 21)),
}


def _file_value(key: str, raw, action: argparse.Action):
    """Parse a config-file value as its flag parses the same command-line text.

    Text flags take a JSON string; the others a JSON number, or a list for list flags.
    """
    if isinstance(raw, str) != (action.type is None):
        raise ValueError(f"config key {key!r}: {raw!r} has the wrong JSON type")
    text = ",".join(map(str, raw)) if isinstance(raw, list) else str(raw)
    try:
        value = text if action.type is None else action.type(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"config key {key!r}: {raw!r}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: {raw!r} is not one of {list(action.choices)}")
    return value


def resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Layer defaults < config file < explicit flags."""
    path = args.config or os.environ.get("GHZDC_CONFIG")
    file_values = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
    # Every subcommand's flags by destination: the flag name with '-' as '_'.
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {a.dest: a for p in subparsers.choices.values() for a in p._actions}
    resolved = dict(DEFAULTS)
    for key, raw in file_values.items():
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r} (keys are flag names with '-' as '_')")
        if raw is not None:
            resolved[key] = _file_value(key, raw, actions[key])
    for key in DEFAULTS:
        if getattr(args, key, None) is not None:
            resolved[key] = getattr(args, key)
    resolved["command"] = args.command
    return resolved


def _config_echo(cfg: dict, keys) -> dict:
    echo = {k: cfg[k] for k in keys}
    echo["command"] = cfg["command"]
    echo["schema_version"] = SCHEMA_VERSION
    return echo


def _run_session(cfg: dict) -> tuple[dict, list[dict], list[str]]:
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
    echo = _config_echo(cfg, ("seed", "rounds", "p_check", "n_users", "message", "receiver"))
    return echo, rows, notes


def _run_adversary(cfg: dict) -> tuple[dict, list[dict], list[str]]:
    kind = MODEL_FLAGS[cfg["model"]]
    strategy = STRATEGIES[kind]
    model = AdversaryModel(kind, **{f: cfg[_MODEL_FIELD_KEYS.get(f, f)] for f in strategy.params})
    report = monte_carlo_confirm(model, cfg["rounds"], cfg["seed"])
    row = report.to_json_dict() | strategy.report(model)
    notes = [
        f"model={model.kind} analytic={report.analytic_success:.6f} "
        f"empirical={report.empirical_success:.6f} se={report.std_error:.6f}"
    ]
    echo = _config_echo(cfg, ("seed", "rounds", "model", "target_qubit", "intercept_basis", "theta"))
    return echo, [row], notes


def _run_physics_sweep(cfg: dict) -> tuple[dict, list[dict], list[str]]:
    pulse = PulseParams(lambda_t=cfg["lambda_t"], omega_t=CANONICAL_PULSE.omega_t)
    points = effective_model_sweep(
        cfg["delta_over_g"], cfg["omega_over_delta"], cfg["n_max"], pulse, cfg["cavity_fock"]
    )
    rows = [asdict(pt) for pt in points]
    echo = _config_echo(
        cfg, ("delta_over_g", "omega_over_delta", "n_max", "lambda_t", "cavity_fock")
    )
    return echo, rows, [f"points={len(rows)}"]


def _run_timing_sweep(cfg: dict) -> tuple[dict, list[dict], list[str]]:
    rows = [
        {"epsilon": float(eps), "fidelity": timing_error_fidelity(float(eps))}
        for eps in cfg["epsilon_grid"]
    ]
    echo = _config_echo(cfg, ("epsilon_grid",))
    return echo, rows, [f"points={len(rows)}"]


def _run_decode_table(cfg: dict) -> tuple[dict, list[dict], list[str]]:
    rows = [
        {
            "pair": pair,
            "signs": "".join(signs),
            "operation": op.name,
            "bits": format(op.bits, "02b"),
        }
        for pair, signs, op in decode_table(cfg["n_users"])
    ]
    echo = _config_echo(cfg, ("n_users",))
    return echo, rows, [f"rows={len(rows)}"]


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args, parser)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"ghzdc: invalid configuration: {exc}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        echo, rows, notes = RUNNERS[cfg["command"]](cfg)
    except ValueError as exc:
        print(f"ghzdc: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surfaced as invariant breach
        print(f"ghzdc: internal invariant breach: {exc!r}", file=sys.stderr)
        return 4
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
