"""tools/loc.py counts code lines only: no blank line, comment or docstring."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module
docstring."""

# a comment
import sys  # code with a comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """a multi-line
        string is code"""
        return [x,
                # a comment inside an expression
                text]
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, def, the string's two lines, the list's first and last
    assert _loc().code_lines(SAMPLE) == 7


def test_every_module_of_the_package_is_counted():
    loc = _loc()
    counts = loc.count()
    assert set(counts) == {p.name for p in (ROOT / "src" / "gor3").glob("*.py")}
    assert all(n > 0 for n in counts.values())
    assert loc.main() == 0
