"""Count the code lines of each gor3 module.

A code line holds at least one token of code: blank lines, comment lines
and docstrings (the first statement of a module, class or function, when
it is a string) do not count; every line of any other statement does,
including each line of a multi-line string.  Tokens come from tokenize
and docstrings from ast, both stdlib.

Usage, from anywhere:

    python3 tools/loc.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that carry no code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text) -> int:
    """The number of code lines of the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def count():
    """file name -> code lines, for every module of src/gor3, sorted."""
    return {p.name: code_lines(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / "src" / "gor3").glob("*.py"))}


def main():
    counts = count()
    for name, n in counts.items():
        print(f"{name:20} {n:6}")
    print(f"{'total':20} {sum(counts.values()):6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
