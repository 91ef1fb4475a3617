"""Write a fixed set of ghzdc CLI transcripts, one data file per invocation,
or compare two such sets.

Usage: PYTHONPATH=src python3 tools/golden_transcripts.py OUTDIR
       python3 tools/golden_transcripts.py --compare OLD NEW

The files hold only the data section of each run (the config echo plus the
records), which is a pure function of the echoed config.  Running this
script against two checkouts (point PYTHONPATH at each ``src`` in turn) and
comparing the output directories with ``diff -r`` shows whether a change
moved any CLI data byte.  One run per subcommand passes no flag but
``--out``, so the defaults are pinned too, and one session run takes every
value from a config file the script writes.  ``GHZDC_CONFIG`` is cleared for
these runs, so the caller's environment cannot reach the transcripts.

``--compare`` gives each file of two sets one of three results: byte-identical;
numerically equal within the tolerance of each changed column
(``TOLERANCES``); or different, naming the first differing row of each
column that differs.  It exits 0 only when nothing is different.  A wrong
argument list, or ``OUTDIR`` when ``ghzdc`` is not importable, exits 2 with the
usage lines.

``pin(OUTDIR, GOLDEN)`` turns a written set into the committed one that the
tier-1 suite checks (``tests/golden``): each file up to ``COMMIT_LIMIT`` bytes
is copied into ``GOLDEN/files``, and each larger one is recorded in
``GOLDEN/digests.json`` by its SHA-256 digest and length.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

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
    # The benchmark's physics-sweep grid, at the truncation it times.
    for fock in (0, 1):
        runs[f"physics-sweep-n96-fock{fock}.jsonl"] = [
            "physics-sweep", "--delta-over-g", ",".join(str(d) for d in range(10, 81, 2)),
            "--omega-over-delta", "20", "--n-max", "96", "--cavity-fock", str(fock),
        ]
    runs["timing-sweep.jsonl"] = ["timing-sweep", "--epsilon-grid=-0.05:0.05:21"]
    for n_users in (2, 3, 7, 11):
        runs[f"decode-table-n{n_users}.jsonl"] = ["decode-table", "--n-users", str(n_users)]
    return runs


def write_transcripts(outdir: Path) -> int:
    from ghzdc.cli import main  # here, so that --compare runs without ghzdc

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


# Largest transcript committed byte for byte; the session transcripts and the
# 11-user decode table above it are pinned by digest.
COMMIT_LIMIT = 60 * 1024


def digest(path: Path) -> dict:
    """SHA-256 digest and length of a file."""
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def pin(outdir: Path, golden: Path) -> None:
    """Replace the committed set under ``golden`` with the transcripts in ``outdir``."""
    files = golden / "files"
    shutil.rmtree(files, ignore_errors=True)
    files.mkdir(parents=True)
    digests = {}
    for path in sorted(outdir.iterdir()):
        if path.stat().st_size <= COMMIT_LIMIT:
            shutil.copyfile(path, files / path.name)
        else:
            digests[path.name] = digest(path)
    (golden / "digests.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


# Relative tolerance of a numeric column: (command, column) -> tolerance.  The
# physics-sweep error comes out of an eigensolve; every other number is a closed
# form or a count.
TOLERANCES = {("physics-sweep", "error"): 1e-9}
CLOSED_FORM_TOLERANCE = 1e-12


def _columns(path: Path) -> dict[str, list]:
    """Column name -> cells, in row order.

    A JSON-lines file has one column per record key, and its first line is the
    ``config`` column; a CSV file has its header's columns, cells as text.
    """
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        rows = list(csv.DictReader(io.StringIO(text)))
    else:
        rows = [json.loads(line) for line in text.splitlines()]
    keys = dict.fromkeys(key for row in rows for key in row)
    return {key: [row.get(key) for row in rows] for key in keys}


def _number(cell):
    """The cell as a float when it holds a number (JSON or CSV text), else None."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _compare_column(old: list, new: list, tolerance: float) -> str | None:
    """None when every cell is equal; else "within <tol>" or "different: <first row>"."""
    verdict = None
    for row in range(max(len(old), len(new))):
        a = old[row] if row < len(old) else None
        b = new[row] if row < len(new) else None
        if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None or not math.isclose(x, y, rel_tol=tolerance, abs_tol=0.0):
            return f"different: row {row}: {a!r} -> {b!r}"
        verdict = f"equal within {tolerance:g} relative"
    return verdict


def compare(old_dir: Path, new_dir: Path) -> tuple[list[str], bool]:
    """One report line per file (per column for a file that is not byte-identical),
    and whether any file or column is different."""
    lines, differs = [], False
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            lines.append(f"{name}: different: only in {old_dir if old.is_file() else new_dir}")
            differs = True
            continue
        if old.read_bytes() == new.read_bytes():
            lines.append(f"{name}: byte-identical")
            continue
        command = next((c for c in COMMANDS if name.startswith(c)), "")
        old_columns, new_columns = _columns(old), _columns(new)
        verdicts = []
        for column in dict.fromkeys([*old_columns, *new_columns]):
            tolerance = TOLERANCES.get((command, column), CLOSED_FORM_TOLERANCE)
            verdict = _compare_column(old_columns.get(column, []), new_columns.get(column, []),
                                      tolerance)
            if verdict is not None:
                verdicts.append(f"{name} {column}: {verdict}")
                differs = differs or verdict.startswith("different")
        if not verdicts:  # equal cells in different bytes: key order or number spelling
            verdicts.append(f"{name}: different: equal cells, different bytes")
            differs = True
        lines += verdicts
    return lines, differs


def _usage(problem: str) -> int:
    """Print ``problem`` and the usage lines to stderr; the exit code of a usage error."""
    print(problem, *__doc__.strip().splitlines()[3:5], sep="\n", file=sys.stderr)
    return 2


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        report, differs = compare(Path(sys.argv[2]), Path(sys.argv[3]))
        print("\n".join(report))
        sys.exit(1 if differs else 0)
    if len(sys.argv) != 2:
        sys.exit(_usage("expected OUTDIR, or --compare OLD NEW"))
    try:
        import ghzdc.cli  # noqa: F401  - write_transcripts imports it again
    except ImportError as exc:
        sys.exit(_usage(f"cannot import ghzdc: {exc}"))
    sys.exit(write_transcripts(Path(sys.argv[1])))
