"""Count the code lines of every module of src/gelfond, and their total.

    python tests/code_lines.py

A code line is a line that is not blank, does not start with ``#`` once
stripped, and lies outside every module, class and function docstring, as
the standard library's ast module finds them.  A line inside any other
string, such as a source template, counts as code unless it starts with
``#``.  Prints one "<count> <module>" line per module and the total; needs
only the standard library and gates nothing.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gelfond"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
