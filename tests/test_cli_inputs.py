"""Property test: ``semistable --input`` on mutated problem files.

Starting from well-formed tensor and phi problems, random edits drop keys,
put values of the wrong type, empty, shorten or lengthen lists and change integers
to -1..3 (so denominators hit 0 and exponents go negative, but stay at most
3).  Whatever the file, the CLI must exit 0, 1 or 2 without a traceback, and
an exit 1 must be one error line.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from semistab.cli import main  # noqa: E402


def rational(num, den=1):
    return {"num": num, "den": den}


def term(alpha, num=1, den=1):
    return {"alpha": alpha, "num": num, "den": den}


BASES = [
    {"tensor": [[[rational(1), rational(0)], [rational(0), rational(1)]],
                [[rational(0), rational(1)], [rational(1, 2), rational(0)]]]},
    # phi = x0 + x1 t0 - x1^2 / 2 in (x0, x1, t0), at a rational point
    {"n": 2, "n1": 2, "k": 1,
     "phi": [[term([1, 0, 0]), term([0, 1, 1]), term([0, 2, 0], -1, 2)]],
     "point": [0, 1, 0]},
    {"n": 3, "n1": 3, "k": 1,
     "phi": [[term([1, 0, 0, 0, 0]), term([0, 1, 0, 1, 0]), term([0, 0, 1, 0, 1], 3),
              term([0, 1, 0, 0, 3])]]},
]

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-1, 3), st.just(0.5),
                 st.just("x"), st.just([]), st.just({}))


def edit(draw, obj):
    """One random edit somewhere inside ``obj``."""
    if isinstance(obj, dict) and obj:
        key = draw(st.sampled_from(sorted(obj)))
        action = draw(st.sampled_from(["drop", "junk", "descend"]))
        if action == "drop":
            return {k: v for k, v in obj.items() if k != key}
        return dict(obj, **{key: draw(JUNK) if action == "junk" else edit(draw, obj[key])})
    if isinstance(obj, list) and obj:
        i = draw(st.integers(0, len(obj) - 1))
        action = draw(st.sampled_from(["empty", "shorten", "lengthen", "junk", "descend"]))
        if action == "empty":
            return []
        if action == "shorten":
            return obj[:i] + obj[i + 1:]
        if action == "lengthen":
            return obj[:i + 1] + obj[i:]
        return obj[:i] + [draw(JUNK) if action == "junk" else edit(draw, obj[i])] + obj[i + 1:]
    if isinstance(obj, int) and not isinstance(obj, bool):
        return draw(st.integers(-1, 3))
    return draw(JUNK)


@st.composite
def mutated(draw, base):
    obj = base
    for _ in range(draw(st.integers(1, 3))):
        obj = edit(draw, obj)
    return obj


@pytest.mark.parametrize("base", BASES, ids=["tensor", "phi-point", "phi"])
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_semistable_input_never_ends_in_a_traceback(base, data):
    problem = data.draw(mutated(base))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(problem, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["semistable", "--input", path])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_one_error_line(code, err):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["blockdecomp", "--verify"], ["blockdecomp", "--input"], ["tiles", "--input"],
    ["plan", "--input"], ["sublevel", "--input"], ["semistable", "--input"],
    ["gitnorm", "--sigma", "1", "--input"], ["polytope", "--sigma", "1", "--input"],
    ["destabilize", "--sigma", "1", "--input"], ["radon", "--input"],
    ["radon", "--balanced"]])
@pytest.mark.parametrize("top", [[1, 2], "x", 3, None])
def test_top_level_that_is_not_an_object_is_an_input_error(tmp_path, command, top):
    # blockdecomp --verify on a list once raised TypeError
    path = tmp_path / "top.json"
    path.write_text(json.dumps(top))
    assert_one_error_line(*run_main(command + [str(path)]))


@pytest.mark.parametrize("domain", [[], [[0.0]], [[0.0, 1.0, 2.0]], [[1.0, 0.0]],
                                    [[0.0, 0.0]], [[-1.0, 1.0], [-1.0, 1.0]]])
def test_sublevel_domain_is_validated(tmp_path, domain):
    # [] once raised IndexError and [[0.0]] ValueError; the others ran
    with open(os.path.join(FIXTURES, "sublevel_line.json")) as fh:
        problem = json.load(fh)
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(dict(problem, domain=domain)))
    assert_one_error_line(*run_main(["sublevel", "--input", str(path), "--samples", "10"]))
