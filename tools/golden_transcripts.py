"""Write a fixed set of ghzdc CLI transcripts, one data file per invocation.

Usage: PYTHONPATH=src python3 tools/golden_transcripts.py OUTDIR

The files hold only the data section of each run (the config echo plus the
records), which is a pure function of the echoed config.  Running this
script against two checkouts (point PYTHONPATH at each ``src`` in turn) and
comparing the output directories with ``diff -r`` shows whether a change
moved any CLI data byte.  One run per subcommand passes no flag but
``--out``, so the defaults are pinned too, and one session run takes every
value from a config file the script writes.  ``GHZDC_CONFIG`` is cleared for
these runs, so the caller's environment cannot reach the transcripts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from ghzdc.cli import main

ADVERSARY_ROUNDS = "2000"
# Spelled out, not read from ghzdc.cli, so that any checkout's src can be compared.
COMMANDS = ("session", "adversary", "physics-sweep", "timing-sweep", "decode-table")
# Every value of the config-file session run; the echo shows each one.
SESSION_FILE = {
    "seed": 13, "rounds": 300, "p_check": 0.25, "n_users": 2, "message": 1,
    "receiver": "charlie", "format": "json",
}


def invocations(config_path: Path) -> dict[str, list[str]]:
    """File name -> argument vector, for every transcript in the set.

    ``config_path`` is where ``write_transcripts`` puts ``SESSION_FILE``.
    """
    runs = {f"{command}-defaults.jsonl": [command] for command in COMMANDS}
    runs["session-config-file.jsonl"] = ["session", "--config", str(config_path)]
    for n_users in range(2, 7):
        runs[f"session-n{n_users}.jsonl"] = [
            "session", "--n-users", str(n_users), "--p-check", "0.3",
            "--rounds", "2000", "--seed", "7",
        ]
    runs["session-message2.csv"] = [
        "session", "--message", "2", "--p-check", "0.2", "--rounds", "500",
        "--seed", "3", "--format", "csv",
    ]
    runs["session-charlie.jsonl"] = [
        "session", "--receiver", "charlie", "--p-check", "0.3", "--rounds", "1000",
        "--seed", "5",
    ]
    for model in ("honest", "bob-guess", "charlie-guess", "bob-lies", "charlie-lies",
                  "bob-flips", "charlie-flips"):
        runs[f"adversary-{model}.jsonl"] = [
            "adversary", "--model", model, "--rounds", ADVERSARY_ROUNDS, "--seed", "1",
        ]
    for target in ("2", "3"):
        for basis in ("computational", "x", "y"):
            runs[f"adversary-intercept-q{target}-{basis}.jsonl"] = [
                "adversary", "--model", "intercept-resend", "--target-qubit", target,
                "--intercept-basis", basis, "--rounds", ADVERSARY_ROUNDS, "--seed", "1",
            ]
    for theta in ("0", "0.3", "0.7854", "1.5707963267948966"):
        runs[f"adversary-ancilla-{theta}.jsonl"] = [
            "adversary", "--model", "ancilla", "--theta", theta,
            "--rounds", ADVERSARY_ROUNDS, "--seed", "1",
        ]
    # The report's extra column must stay last in CSV output.
    runs["adversary-ancilla-0.3.csv"] = [
        "adversary", "--model", "ancilla", "--theta", "0.3", "--rounds", ADVERSARY_ROUNDS,
        "--seed", "1", "--format", "csv",
    ]
    for fock, name in ((0, "physics-sweep.csv"), (1, "physics-sweep-fock1.csv")):
        runs[name] = [
            "physics-sweep", "--delta-over-g", "10,20,40", "--omega-over-delta", "20",
            "--n-max", "8", "--cavity-fock", str(fock), "--format", "csv",
        ]
    runs["timing-sweep.jsonl"] = ["timing-sweep", "--epsilon-grid=-0.05:0.05:21"]
    for n_users in (2, 3, 7, 11):
        runs[f"decode-table-n{n_users}.jsonl"] = ["decode-table", "--n-users", str(n_users)]
    return runs


def write_transcripts(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("GHZDC_CONFIG", None)
        config_path = Path(tmp) / "session.json"
        config_path.write_text(json.dumps(SESSION_FILE), encoding="utf-8")
        for name, argv in invocations(config_path).items():
            # Diagnostics (version, wall time) go to stderr and are not part of the data.
            with contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--out", str(outdir / name)])
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(write_transcripts(Path(sys.argv[1])))
