#!/usr/bin/env python3
"""Code lines of every ``src/asymlp`` module, and their total.

A line counts when it holds a token of code: blank lines, comments and
docstrings (the leading string of a module, class or function) do not.

    python3 scripts/code_lines.py
"""
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "asymlp"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


total = 0
for path in sorted(SRC.glob("*.py")):
    n = code_lines(path.read_text())
    total += n
    print(f"{n:6d}  {path.name}")
print(f"{total:6d}  total")
