"""List the functions of the ghzdc package that no golden CLI transcript calls.

Usage: PYTHONPATH=src python3 tools/unreached.py   (Python 3.11 or later)

Runs every invocation of ``tools/golden_transcripts.py`` under
``sys.setprofile`` and prints, one ``module.qualified_name`` per line, each
function or method defined in the importable ``ghzdc`` package that none of
them entered.
``ghzdc`` is imported inside the profile, so a function called only while a
module loads counts as reached.  Functions are matched by qualified name, not
by line: a decorated function's code object starts at its decorator line.
Lambdas are not listed.  Exits 0 whatever it finds, or 2 with the usage line
when ``ghzdc`` is not importable (``PYTHONPATH`` does not name ``src``).
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
import tempfile
from pathlib import Path


def defined_functions(tree: ast.AST) -> list[str]:
    """Qualified names of the named functions in a module, as code objects spell them."""
    names: list[str] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return names


def unreached(run, package: Path) -> list[str]:
    """``module.qualname`` of each function in ``package`` that ``run()`` does not call."""
    seen: set[tuple[str, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    called = {(Path(filename).resolve(), name) for filename, name in seen}
    missing = []
    for path in sorted(package.resolve().glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        missing += [f"{path.stem}.{name}" for name in defined_functions(tree)
                    if (path, name) not in called]
    return missing


def _golden_run() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    golden = importlib.import_module("golden_transcripts")  # imports ghzdc.cli
    with tempfile.TemporaryDirectory() as tmp:
        if golden.write_transcripts(Path(tmp)) != 0:
            raise SystemExit("a golden invocation failed")


if __name__ == "__main__":
    # find_spec locates the package without importing it.
    spec = importlib.util.find_spec("ghzdc")
    if spec is None:
        print("cannot import ghzdc", __doc__.strip().splitlines()[2], sep="\n", file=sys.stderr)
        sys.exit(2)
    package = Path(spec.origin).parent
    for name in unreached(_golden_run, package):
        print(name)
