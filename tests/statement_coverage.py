"""Run tier-1 in process under a line tracer and list the statements of
src/gelfond that no test reached.

    python tests/statement_coverage.py

A statement is one ast.stmt node of a module of src/gelfond, docstrings
left out; it counts as reached when a line event fired anywhere from its
first line (its first decorator's, for a decorated definition) to its
last.  The source templates that the package compiles at run time are
string constants, so their lines are no statement and out of scope.  The
tracer is installed by sys.settrace and threading.settrace before pytest
imports the package, and it traces only frames whose code lies in
src/gelfond.  Prints each statement that no test reached as
"<module>:<line>: <first line>", with the reason when UNREACHED names it.
Exits with pytest's status when a test fails, else 1 when a statement
that no test reached is not on UNREACHED or an entry of UNREACHED was
reached, else 0.  Needs pytest and the standard library.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gelfond"

# (module, enclosing function, first line stripped, which occurrence of
# that line in the function) -> why no test reaches the statement
UNREACHED = {
    ("series.py", "levin_accelerate",
     'raise InsufficientTermsError("levin_accelerate: too few usable orders")', 1):
        "every window of 8 or more finite, non-zero terms that a test or the "
        "benchmark draws leaves _pick_transform three usable orders; a guard "
        "for one that does not",
}


def statements(path: Path):
    """(first line, last line, key) of every statement of one module but
    its docstrings, the key as in UNREACHED."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []
    seen = {}

    def visit(node, function):
        body_owner = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
        doc = node.body[0] if body_owner and ast.get_docstring(node, clean=False) else None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and child is not doc:
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", ())])
                key = (path.name, function, lines[child.lineno - 1].strip())
                seen[key] = seen.get(key, 0) + 1
                found.append((first, child.end_lineno, key + (seen[key],)))
            inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                      ast.AsyncFunctionDef))
                     else function)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def main() -> int:
    files = {str(path): path.name for path in sorted(PACKAGE.glob("*.py"))}
    reached = {name: set() for name in files.values()}
    names = {}          # co_filename -> module name, or None outside src/gelfond

    def local(frame, event, arg):
        if event == "line":
            reached[names[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        name = names.get(filename, "")
        if name == "":
            name = names[filename] = files.get(str(Path(filename).resolve()))
        if name is None:
            return None
        reached[name].add(frame.f_lineno)
        return local

    if any(module.startswith("gelfond") for module in sys.modules):
        raise SystemExit("gelfond was imported before the tracer")
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return int(status)

    failed = False
    listed = set()
    for path, name in files.items():
        for first, last, key in statements(Path(path)):
            if reached[name].intersection(range(first, last + 1)):
                continue
            reason = UNREACHED.get(key)
            listed.add(key)
            print(f"{name}:{first}: {key[2]}"
                  + (f"\n    listed: {reason}" if reason else "\n    not listed"))
            failed |= reason is None
    for key in UNREACHED.keys() - listed:
        print("listed but reached, take it off UNREACHED:", *key)
        failed = True
    print("statement coverage:", "FAIL" if failed else "ok")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
