"""The statements of the package that a pytest run never executes.

    python3 tools/unreached.py [PYTEST_ARGS ...]
        (default: -q --continue-on-collection-errors, the tier-1 run)

Runs pytest in this process with the arguments given, under a trace hook
(``sys.settrace`` and ``threading.settrace``) that follows only frames of
the files of ``src/asugs``, and records the lines they execute.  Then, for
each statement in a function body that no frame ran, it prints
``path:line: statement`` (its first source line), then each module's
count of such statements, and exits with pytest's status.  Docstrings and
``global``/``nonlocal`` lines, which execute nothing, are not statements
here.  A statement counts as run if any line of it executed; for a
compound statement (``if``, ``for``, ``with``, ``try``, ``def`` ...) the
lines are those of its header, before its body.  Code that runs only in a
worker process (``compare_variants`` with several workers) is not seen.

Run it from the repository's root; the tests find the package through
pytest's ``pythonpath`` setting.  It uses the standard library and pytest
only.  This is a developer aid: neither the tests nor the benchmark run it.
Under the hook, tier-1 took 104 s on a shared 2-core host, against 57 s
without it.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "asugs"
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors"]


def statements(tree: ast.Module) -> list[tuple[int, set[int]]]:
    """Each statement in a function body: its first line, and the lines on
    which it may start to execute."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]  # the docstring
        for stmt in _walk(body):
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                continue
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            blocks = [block for block in _blocks(stmt) if block]
            last = blocks[0][0].lineno - 1 if blocks else stmt.end_lineno
            found.append((first, set(range(first, max(first, last) + 1))))
    return sorted(found, key=lambda pair: pair[0])


def _walk(body: list[ast.stmt]):
    """The statements of a body and of the blocks nested in them, but not
    those of a def or class, whose methods are walked on their own."""
    for stmt in body:
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for block in _blocks(stmt):
                yield from _walk(block)


def _blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The blocks of a compound statement, in source order."""
    parts = getattr(stmt, "handlers", []) + getattr(stmt, "cases", [])
    return ([getattr(stmt, "body", [])] + [part.body for part in parts]
            + [getattr(stmt, "orelse", []), getattr(stmt, "finalbody", [])])


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(argv[1:] or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines, executed = text.splitlines(), ran.get(str(path), set())
        missed = [first for first, span in statements(ast.parse(text)) if not span & executed]
        rel = path.relative_to(PACKAGE.parents[1])
        for first in missed:
            print(f"{rel}:{first}: {lines[first - 1].strip()}")
        counts[rel] = len(missed)
    for rel, n in counts.items():
        print(f"{str(rel):<28} {n:>4} unreached")
    print(f"{'total':<28} {sum(counts.values()):>4} unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
