"""Print the code lines of each module under src/ and their total.

Run from the repository root:

    python3 tools/code_lines.py [ROOT]

ROOT defaults to the src/ directory beside this tool. A code line is a
non-blank line outside comments and docstrings: a line holding only a
comment does not count, nor does any line of a module, class or function
docstring; a statement spread over several lines counts each of its
non-blank lines, and a line of code that ends in a comment counts once.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of a module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    text = source.splitlines()
    return sum(1 for line in lines - docstrings if text[line - 1].strip())


def main(argv) -> int:
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src")
    total = 0
    for folder, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path) as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count:6d}  {os.path.relpath(path, root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
