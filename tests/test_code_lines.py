"""The code-line count of tools/code_lines.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_code_lines_skip_blank_comment_and_docstring_lines():
    source = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line


class A:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function docstring."""
        text = """a string that
is not a docstring"""
        return (
            text
        )
'''
    # import, class, def, the two lines of text's string, and the three of the return
    assert _code_lines()(source) == 8
