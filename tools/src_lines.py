"""Count the physical and code lines of each module of a package.

    python3 tools/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/sqrtwiener.  A code line is a physical line
that holds a token other than a comment, a docstring or whitespace: blank
lines, comment lines and the lines of module, class and function docstrings
(found by ast) are left out, and every line of any other string, such as a
multi-line message, counts.  Prints one row per module, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """Physical lines of source that hold code (see the module docstring)."""
    docstrings = _docstring_spans(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in docstrings):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def count(package: Path) -> list[tuple[str, int, int]]:
    """(module, physical lines, code lines) of each module, by name."""
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        rows.append((path.stem, len(source.splitlines()), code_lines(source)))
    return rows


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "sqrtwiener"
    rows = count(package)
    print(f"{'module':<12}{'physical':>10}{'code':>8}")
    for name, physical, code in rows:
        print(f"{name:<12}{physical:>10}{code:>8}")
    print(f"{'total':<12}{sum(r[1] for r in rows):>10}{sum(r[2] for r in rows):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
