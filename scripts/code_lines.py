#!/usr/bin/env python3
"""Count the code lines of each `src/cyc3` module.

    python3 scripts/code_lines.py [SRC_DIR]

A code line is a line holding a token that is not a comment, a line
break or an indentation marker (read with `tokenize`), outside every
docstring (a module, class or function body's leading string, found with
`ast`).  A string spanning several lines counts on each.  Prints one line
per module, `<count> <file>`, in file-name order, then `<total> total`.
SRC_DIR defaults to the checkout's `src/cyc3`.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "cyc3"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5} {path.name}")
    print(f"{total:5} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
