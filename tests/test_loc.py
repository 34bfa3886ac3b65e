"""Code-line count of tools/loc.py, on a small synthetic module (no git)."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_spec)
sys.modules["loc"] = loc
_spec.loader.exec_module(loc)

MODULE = '''\
"""A module docstring
over two lines."""

# a comment line
import math  # a trailing comment counts as code


class Shape:
    """One line."""

    sides = 3


def area(r):
    """A function docstring.

    With a blank line inside it.
    """
    text = """a multi-line string
    that is not a docstring"""
    "a string statement after the first is no docstring"
    return (math.pi
            * r**2)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, sides, def, text (2 lines), the late string, return (2 lines)
    assert loc.code_lines(MODULE) == 9


def test_a_module_of_only_a_docstring_has_no_code():
    assert loc.code_lines('"""Nothing but words."""\n\n# and a comment\n') == 0


def test_the_working_tree_counts_every_module(capsys):
    assert loc.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines]
    assert names[-1] == "total" and "kernel.py" in names and "__init__.py" in names
    counts = [int(line.split()[1]) for line in lines]
    assert counts[-1] == sum(counts[:-1])
