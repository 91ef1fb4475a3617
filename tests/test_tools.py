"""tools/golden_transcripts.py --compare on hand-written transcript sets, the
byte contract against the committed transcript set, tools/unreached.py on
one CLI invocation, and tools/settable_values.py on a small fixture package."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import ghzdc.cli

TOOLS = Path(__file__).resolve().parents[1] / "tools"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load("golden_transcripts")
settable = _load("settable_values")
unreached = _load("unreached")

ERROR = 0.014183283265061925
SWEEP_CSV = f"delta_over_g,omega_over_delta,n_max,error\n10.0,20.0,8,{ERROR!r}\n"
TABLE_JSONL = (
    '{"config": {"command": "decode-table", "n_users": 2, "schema_version": 1}}\n'
    '{"bits": "00", "operation": "IDENTITY", "pair": "ee", "signs": "+"}\n'
)


def write_set(root: Path, sweep: str = SWEEP_CSV, table: str = TABLE_JSONL) -> Path:
    root.mkdir()
    (root / "physics-sweep.csv").write_text(sweep, encoding="utf-8")
    (root / "decode-table-n2.jsonl").write_text(table, encoding="utf-8")
    return root


class TestCompare:
    def test_identical_sets(self, tmp_path):
        lines, differs = golden.compare(write_set(tmp_path / "a"), write_set(tmp_path / "b"))
        assert not differs
        assert lines == ["decode-table-n2.jsonl: byte-identical",
                         "physics-sweep.csv: byte-identical"]

    def test_last_ulp_error_change_is_within_tolerance(self, tmp_path):
        nudged = SWEEP_CSV.replace(repr(ERROR), repr(math.nextafter(ERROR, 1.0)))
        assert nudged != SWEEP_CSV
        lines, differs = golden.compare(write_set(tmp_path / "a"),
                                        write_set(tmp_path / "b", sweep=nudged))
        assert not differs
        assert "physics-sweep.csv error: equal within 1e-09 relative" in lines
        assert "decode-table-n2.jsonl: byte-identical" in lines

    def test_changed_string_field_is_different(self, tmp_path):
        changed = TABLE_JSONL.replace('"IDENTITY"', '"SIGMA_Z"')
        lines, differs = golden.compare(write_set(tmp_path / "a"),
                                        write_set(tmp_path / "b", table=changed))
        assert differs
        assert any(line.startswith("decode-table-n2.jsonl operation: different") for line in lines)

    def test_exit_code(self, tmp_path):
        old = write_set(tmp_path / "a")
        new = write_set(tmp_path / "b", table=TABLE_JSONL.replace('"ee"', '"gg"'))
        for other, code in ((old, 0), (new, 1)):
            argv = [sys.executable, str(TOOLS / "golden_transcripts.py"), "--compare", old, other]
            run = subprocess.run(argv, capture_output=True, text=True, check=False)
            assert run.returncode == code
        assert "decode-table-n2.jsonl pair: different: row 1: 'ee' -> 'gg'" in run.stdout


def test_transcripts_match_committed_set(tmp_path):
    """Every CLI data byte is pinned: the 40 transcripts regenerate to the committed
    files, or within a ``TOLERANCES`` column, and to the committed digests.

    A change that moves bytes on purpose regenerates ``tests/golden`` with
    ``golden_transcripts.pin`` in the same diff (README, "Golden transcripts").
    """
    new = tmp_path / "new"
    assert golden.write_transcripts(new) == 0
    digests = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    committed = {path.name for path in (GOLDEN / "files").iterdir()}
    names = set(golden.invocations(tmp_path / "session.json"))
    assert len(names) == 40
    assert {path.name for path in new.iterdir()} == names == committed | set(digests)
    for name, pinned in digests.items():
        assert golden.digest(new / name) == pinned, name
        (new / name).unlink()
    report, differs = golden.compare(GOLDEN / "files", new)
    assert not differs, "\n".join(line for line in report if "byte-identical" not in line)


def test_unreached_on_one_decode_table_run(tmp_path):
    package = Path(ghzdc.cli.__file__).parent
    out = tmp_path / "table.jsonl"
    missing = unreached.unreached(lambda: ghzdc.cli.main(["decode-table", "--out", str(out)]),
                                  package)
    assert "cavity.validate_effective_model" in missing
    assert "protocol.decode" not in missing
    assert "cli.main" not in missing


@pytest.mark.parametrize("tool, args", [("unreached.py", []), ("golden_transcripts.py", ["out"])])
def test_tool_without_ghzdc_prints_usage(tmp_path, tool, args):
    """-S -I leave site-packages and PYTHONPATH off sys.path, so ghzdc cannot be imported."""
    run = subprocess.run([sys.executable, "-S", "-I", str(TOOLS / tool), *args], cwd=tmp_path,
                         capture_output=True, text=True, check=False)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert "PYTHONPATH=src" in run.stderr


# Each settable value is marked "+1"; ten in all.
SETTABLE_FIXTURE = {
    "calls.py": """
import dataclasses
from dataclasses import dataclass
from typing import ClassVar


def positional(a, b=1, c=2, /, d=3):  # +1 +1 +1
    return a


def keyword_only(a, *, b, c=4):  # +1
    return a


scale = lambda x, k=2: x * k  # +1


class Plain:
    annotated: int = 0  # not a dataclass field

    def method(self, x=1):  # +1
        return x


@dataclass(frozen=True)
class Fields:
    a: int  # +1
    b: int = 1  # +1
    shared: ClassVar[int] = 0  # a class attribute, not a field

    def method(self, y=None):  # +1
        return y


@dataclasses.dataclass
class Qualified:
    x: float  # +1
""",
    "empty.py": "",
}


def test_settable_values_on_fixture_package(tmp_path, capsys):
    for name, text in SETTABLE_FIXTURE.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert settable.main(["settable_values.py", str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["calls.py", "10"], ["empty.py", "0"], ["total", "10"]]


def test_settable_values_without_modules(tmp_path, capsys):
    assert settable.main(["settable_values.py", str(tmp_path)]) == 2
    assert "no Python modules" in capsys.readouterr().err
