"""The line listing of ``tools/line_trace.py`` on a hand-made module and a
hand-made set of lines run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"
spec = importlib.util.spec_from_file_location("line_trace", TOOL)
line_trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_trace)

SOURCE = '''"""Module docstring."""
import math


@staticmethod
def f(x,
      y=1):
    """Doc of f."""
    if x:
        return math.sqrt(x)
    return y


class K:
    """Doc of K."""
    z = [i for i in range(3)]

    def m(self):
        return 1
'''


def test_executable_lines_skip_headers_decorators_and_docstrings():
    assert line_trace.executable_lines(SOURCE, "m.py") == {2, 9, 10, 11, 16, 19}


def test_unrun_lines_are_the_executable_lines_not_hit():
    # a hit on a skipped or blank line changes nothing
    assert line_trace.unrun_lines(SOURCE, "m.py", {1, 2, 6, 9, 10, 12, 16}) == [11, 19]
    assert line_trace.unrun_lines(SOURCE, "m.py", set(range(1, 20))) == []


def test_spans_join_consecutive_lines():
    assert line_trace.spans([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
    assert line_trace.spans([]) == ""
