"""Count the code lines of the symcorr package, per module and in total.

    python tests/count_code_lines.py

A code line is a line of ``src/symcorr/*.py`` that holds a token other
than a comment, a blank-line NL, an INDENT or a DEDENT, and that lies
outside every module, class and function docstring.  A token that spans
several lines, such as a multi-line string that is not a docstring,
makes each of its lines a code line.  ``wc -l`` counts docstrings,
comments and blank lines too.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ENCODING, NEWLINE and ENDMARKER mark no line that holds no other token
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.NEWLINE, tokenize.ENCODING, tokenize.ENDMARKER}

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, DOCSTRING_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "symcorr", "*.py"))):
        with open(path) as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:6d} {os.path.relpath(path, ROOT)}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
