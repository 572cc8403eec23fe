"""Count the code lines of Python modules: python tools/code_lines.py PATH...

A code line is a line that holds a token other than a comment; blank
lines, comment lines and the docstrings of modules, classes and functions
are left out.  Each PATH is a module or a directory, whose *.py files are
counted, sorted, without recursion.  One line is printed per module, then
the total.
"""

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main(paths: list[str]) -> int:
    if not paths:
        sys.stderr.write("usage: python tools/code_lines.py PATH...\n")
        return 2
    total = 0
    for path in map(pathlib.Path, paths):
        for module in sorted(path.glob("*.py")) if path.is_dir() else [path]:
            count = code_lines(module.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
