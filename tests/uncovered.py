"""List the statements in `src/lazycops` that the tier-1 suite never runs.

    python tests/uncovered.py [PYTEST_ARGS...]

Runs pytest in this process (by default on the whole `tests/` directory,
as tier-1 does) with a line tracer limited to `src/lazycops`, then prints
`path:line: source` for each statement that never ran in a function body
or in a branch of a module-level `if` (the `__main__` guard), and a count.
Statements directly at module or class level run at import and are not
listed; neither are docstrings, other constant expressions, `global` and
`nonlocal` lines, which compile to no code.  Code that runs only in child
processes (the CLI tests that start `python -m lazycops.cli`) is not seen.

The per-test time limit of `conftest.py` still holds, and tracing slows the
suite about fourfold; if a test fails under tracing, the exit status is 1
and a note says so, since the statements after its failure may then be
listed wrongly.

Standard library and pytest only.  Not a tier-1 test (pytest does not
collect this file) and not a CI gate.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "lazycops"


def _line_tracer(root: str):
    """A global trace function that records, per file under `root`, the
    lines that ran; and the dict it fills."""
    ran, local_tracers = {}, {}

    def local_for(filename):
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(root):
            return None
        local = local_tracers.get(filename)
        if local is None:
            local = local_tracers[filename] = local_for(filename)
        return local

    return on_call, ran


def _silent(stmt: ast.stmt) -> bool:
    # no bytecode, so no line event: docstrings and other bare constants
    return (isinstance(stmt, (ast.Global, ast.Nonlocal))
            or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


def _bodies(stmt: ast.stmt):
    """The statement lists nested directly in `stmt`."""
    for name in ("body", "orelse", "finalbody"):
        yield getattr(stmt, name, [])
    for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
        yield part.body


def _own_lines(stmt: ast.stmt) -> range:
    """The lines a line event of `stmt` itself can carry: all of a simple
    statement, the header (decorators included) of a compound one."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, first + 1))
    return range(first, stmt.end_lineno + 1)


def listed_statements(tree: ast.Module):
    """Each statement that runs code and need not run at import, in source
    order: those in function bodies and in module-level branches."""
    def walk(body, listed):
        for stmt in body:
            if listed and not _silent(stmt):
                yield stmt
            for nested in _bodies(stmt):
                yield from walk(nested, listed or not isinstance(stmt, ast.ClassDef))
    return walk(tree.body, False)


def never_run(ran: dict) -> list:
    """(path, line, source line) of each listed statement under PACKAGE
    with no recorded line, by path and line."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = ran.get(str(path), set())
        source = text.splitlines()
        for stmt in listed_statements(ast.parse(text, str(path))):
            if lines.isdisjoint(_own_lines(stmt)):
                missed.append((path.relative_to(REPO), stmt.lineno, source[stmt.lineno - 1].strip()))
    return missed


def main(argv: list) -> int:
    import pytest

    # the tier-1 environment, for this process and the CLI tests' children
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    args = argv or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                    str(REPO / "tests")]
    tracer, ran = _line_tracer(str(PACKAGE) + os.sep)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = never_run(ran)
    for path, line, text in missed:
        print(f"{path}:{line}: {text}")
    print(f"{len(missed)} statements never ran")
    if status != 0:
        print(f"pytest exited {int(status)} under tracing: a failed or timed-out test may "
              "hide statements it would have run", file=sys.stderr)
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
