"""Property tests: every command on mutated input files.

Starting from well-formed tensor and phi problems for ``semistable`` and from
the README fixture of every other command, random edits drop keys, put
values of the wrong type, empty, shorten or lengthen lists and change
integers to -1..3 (so denominators hit 0 and exponents go negative, but stay
at most 3).  Whatever the file, the CLI must exit 0, 1 or 2 without a
traceback, and an exit 1 must be one error line.
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


def assert_no_traceback(argv, problem):
    """Run ``argv`` with the path of ``problem`` (written as JSON) last."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(problem, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [path])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("base", BASES, ids=["tensor", "phi-point", "phi"])
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_semistable_input_never_ends_in_a_traceback(base, data):
    assert_no_traceback(["semistable", "--input"], data.draw(mutated(base)))


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def load_fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


# each command with the fixture of its README example
COMMAND_BASES = {
    "tiles": (["tiles", "--input"], "m61_decomp.json"),
    "blockdecomp-verify": (["blockdecomp", "--verify"], "intro.json"),
    "blockdecomp-input": (["blockdecomp", "--input"], "m61.json"),
    "plan": (["plan", "--input"], "plan61.json"),
    "gitnorm": (["gitnorm", "--sigma", "1", "--input"], "t2.json"),
    "polytope": (["polytope", "--sigma", "1", "--input"], "t2.json"),
    "destabilize": (["destabilize", "--sigma", "0", "--sigma-uniform", "--input"],
                    "p63_degree1.json"),
    "radon-balanced": (["radon", "--balanced"], "balanced_parabola.json"),
    "sublevel": (["sublevel", "--samples", "50", "--input"], "sublevel_line.json"),
}


@pytest.mark.parametrize("command", sorted(COMMAND_BASES))
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_command_input_never_ends_in_a_traceback(command, data):
    argv, fixture = COMMAND_BASES[command]
    assert_no_traceback(argv, data.draw(mutated(load_fixture(fixture))))


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
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(dict(load_fixture("sublevel_line.json"), domain=domain)))
    assert_one_error_line(*run_main(["sublevel", "--input", str(path), "--samples", "10"]))


DECOMPOSITION_COMMANDS = pytest.mark.parametrize("command,fixture", [
    (["tiles", "--input"], "m61_decomp.json"),
    (["blockdecomp", "--verify"], "m61_decomp.json"),
    (["plan", "--input"], "plan61.json")], ids=["tiles", "blockdecomp-verify", "plan"])


def run_on_decomposition(tmp_path, command, fixture, edit):
    problem = load_fixture(fixture)
    edit(problem["decomposition"])
    path = tmp_path / "decomposition.json"
    path.write_text(json.dumps(problem))
    return run_main(command + [str(path)])


@DECOMPOSITION_COMMANDS
@pytest.mark.parametrize("value", [{}, "x", None, [1], True, -1, 1.5])
def test_degree_that_is_not_a_nonnegative_int_is_an_input_error(tmp_path, command,
                                                                fixture, value):
    # {}, "x", None and [1] once raised TypeError in tiles and blockdecomp
    # --verify; True, -1 and 1.5 ran
    def edit(dec):
        dec["D"][0][0] = value
    assert_one_error_line(*run_on_decomposition(tmp_path, command, fixture, edit))


@DECOMPOSITION_COMMANDS
def test_group_size_true_is_an_input_error(tmp_path, command, fixture):
    # True for a group of size 1 ran as a 1
    def edit(dec):
        assert dec["col_groups"][2] == 1
        dec["col_groups"][2] = True
    assert_one_error_line(*run_on_decomposition(tmp_path, command, fixture, edit))


@pytest.mark.parametrize("tau,flag", [
    ({"num": 0, "den": 1}, []), ({"num": -1, "den": 2}, []), ({"num": 2, "den": 0}, []),
    ({"num": 10 ** 400, "den": 1}, []), ({"num": 1, "den": 2}, ["--tau", "0"])])
def test_sublevel_tau_is_validated(tmp_path, tau, flag):
    # each once ended in a traceback: ValueError from the estimator,
    # ZeroDivisionError for the zero denominator, OverflowError past floats
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(dict(load_fixture("sublevel_line.json"), tau=tau)))
    argv = ["sublevel", "--input", str(path), "--samples", "10"] + flag
    assert_one_error_line(*run_main(argv))


def in_one_more_variable(matrix, exponent):
    matrix["d"] += 1
    for row in matrix["entries"]:
        for entry in row:
            for term in entry:
                term["alpha"].append(exponent)


@pytest.mark.parametrize("mismatch", ["A-variables", "B-variables", "matrix-variables",
                                      "matrix-rows"])
def test_verified_decomposition_must_fit_the_matrix(tmp_path, mismatch):
    # the first and the last two once ended in a traceback; B in another
    # number of variables than A was verified
    problem = load_fixture("intro.json")
    dec, M = problem["decomposition"], problem["matrix"]
    if mismatch == "matrix-rows":
        M["p"] -= 1
        M["entries"].pop()
    elif mismatch == "matrix-variables":
        in_one_more_variable(M, 1)
    else:
        in_one_more_variable(dec[mismatch[0]], 0)
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(problem))
    assert_one_error_line(*run_main(["blockdecomp", "--verify", str(path)]))
