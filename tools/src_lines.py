"""Count the source lines of every module under a directory (``src/`` by default).

    python3 tools/src_lines.py [ROOT]

Prints one line per module, then the sum: its total lines, and its code
lines, which leave out blank lines, comment-only lines and docstrings.
A line counts as code when a token other than a comment starts on it or
a multi-line string that is not a docstring spans it; a docstring is the
string that opens a module, class or function body (found with ``ast``).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(total lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path)
        total, code = total + t, code + c
        print(f"{t:6d} {c:6d}  {path.relative_to(root)}")
    print(f"{total:6d} {code:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
