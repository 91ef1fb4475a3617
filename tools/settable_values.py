"""Count the settable values of a package: parameters with a default plus dataclass fields.

Usage: python3 tools/settable_values.py [PACKAGE_DIR]   (default: src/ghzdc)

A settable value is a knob a caller can turn without editing the source: a
function or method parameter that has a default (positional or keyword-only),
or a field of a ``@dataclass`` class (an annotated assignment in its body,
``ClassVar`` annotations excluded).  Lambdas count like functions.  The script
parses each module's AST, imports nothing, and prints one line per module and
a total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _name(node: ast.expr) -> str:
    """The name a decorator or annotation refers to: ``x`` for ``x``, ``m.x``, ``x(...)``, ``x[...]``."""
    if isinstance(node, (ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def count(tree: ast.AST) -> int:
    total = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            total += len(node.args.defaults)
            total += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and "dataclass" in map(_name, node.decorator_list):
            total += sum(
                isinstance(stmt, ast.AnnAssign) and _name(stmt.annotation) != "ClassVar"
                for stmt in node.body
            )
    return total


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/ghzdc")
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no Python modules in {package}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        n = count(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        total += n
        print(f"{path.name:<16} {n:>4}")
    print(f"{'total':<16} {total:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
