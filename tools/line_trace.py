"""Line trace of the test suite: the lines of ``src/semistab`` that no test ran.

    python3 tools/line_trace.py [PYTEST ARGS...]

Runs pytest in this process (``-q -p no:cacheprovider`` and the given
arguments, by default the whole suite) with a ``sys.settrace`` hook that
follows only frames whose code lives under ``src/semistab``, and then prints,
per module, the executable lines that no traced test ran.  The executable
lines are read from the compiled code objects' ``co_lines``; ``def``,
``class``, decorator and docstring lines are skipped, since they run at
import or not at all.  Tests that run the CLI in a subprocess are not
traced, so a line that only they reach is listed too.  Tracing is slow: the
tier-1 suite took about 195 s traced against 70 s untraced on a 2-vCPU host.
Only the standard library and pytest are used.
"""

from __future__ import annotations

import ast
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semistab"


def skipped_lines(tree: ast.AST) -> set:
    """Line numbers of the def, class and decorator lines (a header spans
    from its first decorator to the line before its body) and of the
    docstrings of the module, its classes and its functions."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if not isinstance(node, ast.Module):
            first = min([node.lineno, *(dec.lineno for dec in node.decorator_list)])
            out.update(range(first, body[0].lineno))
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def executable_lines(source: str, filename: str) -> set:
    """Line numbers that some instruction of the compiled module or of a code
    object nested in it belongs to, less the :func:`skipped_lines`."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines - skipped_lines(ast.parse(source))


def unrun_lines(source: str, filename: str, hit: set) -> list:
    """The executable lines of ``source`` not in ``hit``, in order."""
    return sorted(executable_lines(source, filename) - hit)


def spans(lines: list) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def trace_tests(args: list) -> tuple[int, dict]:
    """(pytest exit code, {file name: set of lines run}) for one in-process
    pytest run, tracing only frames of files under ``PACKAGE``."""
    prefix = str(PACKAGE) + "/"
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits[name].add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return status, hits


def main(argv: list) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, hits = trace_tests(argv or [str(ROOT / "tests")])
    for path in sorted(PACKAGE.glob("*.py")):
        lines = unrun_lines(path.read_text(), str(path), hits.get(str(path), set()))
        print(f"{path.name}: {len(lines)} unrun" + (f": {spans(lines)}" if lines else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
