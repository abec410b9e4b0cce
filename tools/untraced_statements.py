"""List the statements of src/majorana that the test suite never runs.

Runs pytest in this process under a line tracer (sys.settrace) that records
only frames of the package's own files, then parses each file and reports
every statement none of whose lines ran.  A compound statement (if, for,
def, ...) counts as run when its header ran; a string literal standing as a
statement (a docstring) compiles to nothing and is skipped.  Uses the
standard library and pytest only.

    PYTHONPATH=src python tools/untraced_statements.py [pytest arguments]

Exits 1 if a statement never ran, with one path:line per statement, and
with pytest's own exit code if the suite failed.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "majorana"


def statement_lines(tree: ast.Module):
    """(first line, lines) of each statement that compiles to code: the
    lines a simple statement spans, or a compound statement's header from
    its first decorator to the line before its body."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.Try):
            continue  # try: compiles to no code of its own
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(first, max(first, last) + 1)


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}
    # Each code filename seen, mapped to its set in ran, or to None outside
    # the package; the filename may be relative to the working directory.
    lines_of: dict[str, set[int] | None] = {}

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            lines_of[name] = ran.get(str(Path(name).resolve()))
        hits = lines_of[name]
        if hits is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [
        f"{path.relative_to(PACKAGE.parents[1])}:{line}"
        for name, path in files.items()
        for line, lines in sorted(statement_lines(ast.parse(path.read_text(), name)),
                                  key=lambda statement: statement[0])
        if ran[name].isdisjoint(lines)
    ]
    print(f"{len(missed)} statement(s) of src/majorana never ran")
    for where in missed:
        print(where)
    if status != 0:
        return int(status)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
