"""Raw and code line counts of each module of a package, and their totals.

    python3 tools/code_lines.py [PACKAGE_DIR] [--against REV]   (default: src/asugs)

A raw line is any line of the file.  A code line is a line on which a
token of code starts or continues: blank lines, comment lines and the
lines of docstrings (the first statement of a module, class or function
when it is a string) are not code lines.  A line that holds code and a
trailing comment is one code line.  With ``--against REV``, each
module's code lines at the git revision REV (``git show REV:<path>``),
now and the difference, with a total row; a module absent on one side
counts 0 there.  Run it from the repository's root.  This is a developer
aid: neither the tests nor the benchmark run it.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(raw lines, code lines) of one source file's text."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def code_at(rev: str, root: Path) -> dict[str, int]:
    """Code lines of each module of root at git revision rev."""
    names = subprocess.run(["git", "ls-tree", "--name-only", rev, f"{root.as_posix()}/"],
                           capture_output=True, text=True, check=True).stdout.split()
    return {Path(name).name: count(subprocess.run(["git", "show", f"{rev}:{name}"],
                                                  capture_output=True, text=True,
                                                  check=True).stdout)[1]
            for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Raw and code lines of a package's modules.")
    parser.add_argument("package", nargs="?", default="src/asugs")
    parser.add_argument("--against", metavar="REV", help="compare code lines with git revision REV")
    args = parser.parse_args(argv[1:])
    root = Path(args.package)
    now = {path.name: count(path.read_text()) for path in sorted(root.glob("*.py"))}
    if args.against is None:
        rows = [(name, *lines) for name, lines in now.items()]
        rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
        print(f"{'module':<16} {'raw':>6} {'code':>6}")
        for name, raw, code in rows:
            print(f"{name:<16} {raw:>6} {code:>6}")
        return 0
    then = code_at(args.against, root)
    rows = [(name, then.get(name, 0), now[name][1] if name in now else 0)
            for name in sorted(then.keys() | now.keys())]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    rev = args.against[:12]
    print(f"{'module':<16} {rev:>12} {'now':>6} {'diff':>6}")
    for name, before, after in rows:
        print(f"{name:<16} {before:>12} {after:>6} {after - before:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
