"""Count the code lines of Python modules: lines holding a token that is neither
a comment nor a docstring, so blank lines, comments and docstrings are left out.

Usage: ``python tools/code_lines.py [PATH ...]`` (default ``src``). A path may be
a file or a directory, which is searched for ``*.py`` files. Prints one
``lines  module`` row per module and a total, so that two trees counted by
this script compare line for line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that carry no code of their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """``(line, column)`` where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment, a docstring or layout."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    total = 0
    for module in _modules((argv if argv is not None else sys.argv[1:]) or ["src"]):
        lines = code_lines(module.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
