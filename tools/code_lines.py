"""Raw and code line counts of each module of a package, and their totals.

    python3 tools/code_lines.py [PACKAGE_DIR]   (default: src/asugs)

A raw line is any line of the file.  A code line is a line on which a
token of code starts or continues: blank lines, comment lines and the
lines of docstrings (the first statement of a module, class or function
when it is a string) are not code lines.  A line that holds code and a
trailing comment is one code line.  This is a developer aid: neither the
tests nor the benchmark run it.
"""

import ast
import io
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


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/asugs")
    rows = [(path.name, *count(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16} {'raw':>6} {'code':>6}")
    for name, raw, code in rows:
        print(f"{name:<16} {raw:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
