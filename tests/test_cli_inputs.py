"""Property tests: every command on mutated input files.

Starting from well-formed tensor and phi problems for ``semistable`` and from
the README fixture of every other command, random edits drop keys, put
values of the wrong type, empty, shorten or lengthen lists and change
integers to -1..3 (so denominators hit 0 and exponents go negative, but stay
at most 3) or to true or false.  Each edit is made at a node on the path to a leaf drawn
uniformly from all leaves, at a depth drawn uniformly along that path, so
deep fields and whole subtrees are both reached.  Whatever the file, the CLI
must exit 0, 1 or 2 without a traceback, and an exit 1 must be one error
line.
"""

import contextlib
import io
import json
import math
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


def leaves(obj, path=()):
    """Paths to the leaves of ``obj``: scalars and empty lists and objects."""
    if isinstance(obj, dict) and obj:
        return [p for k in sorted(obj) for p in leaves(obj[k], path + (k,))]
    if isinstance(obj, list) and obj:
        return [p for i, v in enumerate(obj) for p in leaves(v, path + (i,))]
    return [path]


def edit(draw, obj):
    """One random edit of ``obj``.  A leaf is drawn uniformly from all leaves
    and then a node uniformly from the objects and lists on its path; the
    child of that node on the path is dropped or replaced by junk (an int
    leaf by -1..3, true or false too), or the list holding it is emptied, shortened or
    lengthened there."""
    path = draw(st.sampled_from(leaves(obj)))
    if not path:
        return draw(JUNK)
    depth = draw(st.integers(0, len(path) - 1))
    up, key = path[:depth], path[depth]
    node = obj
    for k in up:
        node = node[k]
    child = node[key]
    if isinstance(child, int) and not isinstance(child, bool):
        junk = st.one_of(st.integers(-1, 3), st.booleans(), JUNK)
    else:
        junk = JUNK
    if isinstance(node, dict):
        if draw(st.sampled_from(["drop", "junk"])) == "drop":
            new = {k: v for k, v in node.items() if k != key}
        else:
            new = dict(node, **{key: draw(junk)})
    else:
        action = draw(st.sampled_from(["empty", "shorten", "lengthen", "junk"]))
        if action == "empty":
            new = []
        elif action == "shorten":
            new = node[:key] + node[key + 1:]
        elif action == "lengthen":
            new = node[:key + 1] + node[key:]
        else:
            new = node[:key] + [draw(junk)] + node[key + 1:]
    return replace(obj, up, new)


def replace(obj, path, value):
    """A copy of ``obj`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    head, *rest = path
    if isinstance(obj, dict):
        return dict(obj, **{head: replace(obj[head], rest, value)})
    return obj[:head] + [replace(obj[head], rest, value)] + obj[head + 1:]


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


def test_coefficient_past_the_float_range_is_an_input_error(tmp_path):
    # gitnorm, hsnorm and sublevel once ended in OverflowError; the exact
    # polytope LP and a form the exact stages decide take the coefficient as
    # it is.  The tensor's sparse certificate was once lost to the float
    # bound computed after it: it is positive, with the bound null
    matrix, tensor, phi = load_fixture("t2.json"), json.loads(json.dumps(BASES[0])), \
        json.loads(json.dumps(BASES[1]))
    sublevel = load_fixture("sublevel_line.json")
    matrix["entries"][0][0][0]["num"] = 10 ** 400
    tensor["tensor"][0][0][0]["num"] = 10 ** 400
    phi["phi"][0][0]["num"] = 10 ** 400
    sublevel["matrix"]["entries"][0][0][0]["num"] = 10 ** 400
    paths = {}
    for name, problem in [("matrix", matrix), ("tensor", tensor), ("phi", phi),
                          ("sublevel", sublevel)]:
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(problem, fh)
    assert_one_error_line(*run_main(["gitnorm", "--sigma", "1", "--input", paths["matrix"]]))
    assert_one_error_line(*run_main(["hsnorm", "--input", paths["matrix"]]))
    assert_one_error_line(*run_main(["sublevel", "--samples", "10",
                                     "--input", paths["sublevel"]]))
    assert run_main(["polytope", "--sigma", "1", "--input", paths["matrix"]])[0] == 0
    out = tmp_path / "verdict.json"
    assert run_main(["semistable", "--input", paths["tensor"], "--out", str(out)]) == (0, "")
    report = json.loads(out.read_text())
    assert (report["state"], report["detail"], report["value_bound"]) == (
        "positive", "sparse criterion", None)
    assert run_main(["semistable", "--input", paths["phi"]])[0] == 0


@pytest.mark.parametrize("exponent", [160, 308])
def test_hsnorm_of_a_coefficient_near_the_float_range_is_finite(tmp_path, exponent):
    # squaring 10^160 once overflowed: the report held "value": Infinity
    matrix = load_fixture("t2.json")
    matrix["entries"][0][0][0]["num"] = 10 ** exponent
    path, out = tmp_path / "big.json", tmp_path / "r.json"
    path.write_text(json.dumps(matrix))
    assert run_main(["hsnorm", "--input", str(path), "--out", str(out)]) == (0, "")
    expect = 2 ** 0.5 * 10.0 ** exponent
    assert abs(json.loads(out.read_text())["value"] - expect) <= 1e-15 * expect


@pytest.mark.parametrize("argv,coefficient,shown", [
    (["hsnorm"], rational(10 ** 160), "2.000000000e+160"),
    (["gitnorm", "--sigma", "1"], rational(10 ** 20), "2.000000e+20"),
    (["hsnorm"], rational(1, 10 ** 200), "2.000000000e-200"),
    (["gitnorm", "--sigma", "1"], rational(1, 10 ** 200), "2.000000e-200")],
    ids=["hsnorm", "gitnorm", "hsnorm-2e-200", "gitnorm-2e-200"])
def test_value_from_1e15_up_prints_in_scientific_notation(tmp_path, argv, coefficient,
                                                          shown):
    # in fixed point 2e160 once printed as a 171-character line of digits,
    # and 2e-200 as zeros; any nonzero value that would print as zeros is
    # scientific too
    matrix = load_fixture("t2.json")
    for row in matrix["entries"]:
        row[0][0].update(coefficient)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(matrix))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--input", str(path)]) == 0
    assert out.getvalue().splitlines()[0].split()[1] == shown


@pytest.mark.parametrize("command,fixture,matrix", [
    (["blockdecomp", "--input"], "m61.json", lambda problem: problem),
    (["blockdecomp", "--verify"], "intro.json", lambda problem: problem["decomposition"]["B"]),
    (["sublevel", "--samples", "10", "--input"], "sublevel_line.json",
     lambda problem: problem["matrix"])], ids=["blockdecomp-input", "blockdecomp-verify",
                                               "sublevel"])
@pytest.mark.parametrize("exponent", [0.5, True])
def test_exponent_that_is_not_an_int_is_an_input_error(tmp_path, command, fixture, matrix,
                                                       exponent):
    # 0.5 once ended in a traceback in each command (AttributeError or
    # TypeError, and KeyError when only some exponents were 0.5); True ran
    # as a 1
    problem = load_fixture(fixture)
    for row in matrix(problem)["entries"]:
        for entry in row:
            for term in entry:
                term["alpha"][-1] = exponent
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(problem))
    assert_one_error_line(*run_main(command + [str(path)]))


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


def set_at(problem, path, value):
    """``problem`` with the value at ``path`` (keys and list indexes) set."""
    node = problem
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return problem


@pytest.mark.parametrize("edits", [
    [(("entries", 0, 0, 0, "num"), 10 ** 308)],
    [(("entries", 0, 0, 0, "num"), 10 ** 200)],
    [(("entries", 0, 0, 0, "den"), 10 ** 330)],
    [(("entries", 0, 0, 0, "num"), 10 ** 300), (("entries", 1, 0, 0, "den"), 10 ** 330)]],
    ids=["num-1e308", "num-1e200", "den-1e330", "num-1e300-den-1e330"])
def test_gitnorm_mass_past_the_normal_float_range_is_an_input_error(tmp_path, edits):
    # 10^308 once ended in a LinAlgError traceback, and 10^200 exited 0 with
    # drift-to-zero though the infimum is 2e100: beside the mass 2 of the
    # other coefficient, no power of two brings its mass into the float range.
    # 10^-330 is 0.0 as a float, so its mass is lost before any rescale; a
    # search without it drifts to zero, below the infimum (2e-165, and about
    # 2e-15 beside 10^300)
    problem = load_fixture("t2.json")
    for path, value in edits:
        set_at(problem, path, value)
    path = tmp_path / "mass.json"
    path.write_text(json.dumps(problem))
    assert_one_error_line(*run_main(["gitnorm", "--sigma", "1", "--input", str(path)]))


def test_gitnorm_masses_one_power_of_two_brings_into_range_have_a_value(tmp_path):
    # two coefficients 10^-200 once reported 0.0 converged, below the infimum
    # 2e-200, and then were an input error; their masses 2e-400 times 4^664
    # are normal floats, so the search runs on the rescaled form
    problem = load_fixture("t2.json")
    for row in problem["entries"]:
        row[0][0]["den"] = 10 ** 200
    path, out = tmp_path / "mass.json", tmp_path / "r.json"
    path.write_text(json.dumps(problem))
    assert run_main(["gitnorm", "--sigma", "1", "--input", str(path),
                     "--out", str(out)]) == (0, "")
    assert json.loads(out.read_text())["value"] == pytest.approx(2e-200, rel=1e-12)


PLAN_TILE = ("tiles", 0)
BOOL_FIELDS = {
    # (command, fixture or base, path of the field set to true)
    "coefficient-num": (["polytope", "--sigma", "1", "--input"], "t2.json",
                        ("entries", 0, 0, 0, "num")),
    "coefficient-den": (["polytope", "--sigma", "1", "--input"], "t2.json",
                        ("entries", 0, 0, 0, "den")),
    "tensor-num": (["semistable", "--input"], 0, ("tensor", 0, 0, 0, "num")),
    "tensor-den": (["semistable", "--input"], 0, ("tensor", 0, 0, 0, "den")),
    "tile-sigma-num": (["plan", "--input"], "plan61.json", PLAN_TILE + ("sigma", "num")),
    "tile-sigma-den": (["plan", "--input"], "plan61.json", PLAN_TILE + ("sigma", "den")),
    "plan-sigma": (["plan", "--input"], "plan61.json", ("sigma",)),
    "tile-interval": (["plan", "--input"], "plan61.json", PLAN_TILE + ("I", 1)),
    "tau-num": (["sublevel", "--samples", "10", "--input"], "sublevel_line.json",
                ("tau", "num")),
    "tau-den": (["sublevel", "--samples", "10", "--input"], "sublevel_line.json",
                ("tau", "den")),
    "p": (["sublevel", "--samples", "10", "--input"], "sublevel_line.json",
          ("matrix", "p")),
    "q": (["polytope", "--sigma", "1", "--input"], "t2.json", ("q",)),
    "d": (["sublevel", "--samples", "10", "--input"], "sublevel_line.json",
          ("matrix", "d")),
    "phi-k": (["semistable", "--input"], 1, ("k",)),
    "balanced-type": (["radon", "--balanced"], "balanced_parabola.json", ("type",)),
    "balanced-exponent": (["radon", "--balanced"], "balanced_parabola.json",
                          ("alphas", 0, 0)),
    "balanced-d": (["radon", "--balanced"], "balanced_parabola.json", ("d",)),
    "sublevel-domain": (["sublevel", "--samples", "10", "--input"], "sublevel_line.json",
                        ("domain", 0, 1)),
    "sublevel-weight": (["sublevel", "--samples", "10", "--input"], "sublevel_line.json",
                        ("weight",)),
    "phi-point": (["semistable", "--input"], 1, ("point", 1)),
}


@pytest.mark.parametrize("field", sorted(BOOL_FIELDS))
def test_integer_field_true_is_an_input_error(tmp_path, field):
    # each once ran with true read as the integer 1: a coefficient, a
    # tensor entry, a tile sigma or tau of 1, a plan pinned at sigma 1, the
    # tile [0, 1], a 1 x 2 matrix, a type-1 set, the exponent 1, the domain
    # [-1000, 1], the weight 1, the phi point [0, 1, 0] ...
    command, base, path = BOOL_FIELDS[field]
    problem = (load_fixture(base) if isinstance(base, str)
               else json.loads(json.dumps(BASES[base])))
    problem = set_at(problem, path, True)
    target = tmp_path / "bool.json"
    target.write_text(json.dumps(problem))
    assert_one_error_line(*run_main(command + [str(target)]))


SUBLEVEL = ["sublevel", "--samples", "50", "--input"]
NOT_NUMBERS = {
    # (command, fixture or base, path of the field, value): each once ran,
    # the weights "nan", -1, NaN and Infinity with max_estimate 0.000000,
    # the weight "2" as 2.0, the domain as [-1, 1], the phi point as
    # [0, 1/3, 0], the plan pinned at 13/36, and a null plan sigma as no pin
    "weight-nan-string": (SUBLEVEL, "sublevel_line.json", ("weight",), "nan"),
    "weight-negative": (SUBLEVEL, "sublevel_line.json", ("weight",), -1),
    "weight-string": (SUBLEVEL, "sublevel_line.json", ("weight",), "2"),
    "weight-nan": (SUBLEVEL, "sublevel_line.json", ("weight",), math.nan),
    "weight-infinity": (SUBLEVEL, "sublevel_line.json", ("weight",), math.inf),
    "domain-strings": (SUBLEVEL, "sublevel_line.json", ("domain",), [["-1", "1"]]),
    "phi-point-string": (["semistable", "--input"], 1, ("point", 1), "1/3"),
    "plan-sigma-string": (["plan", "--input"], "plan61.json", ("sigma",), "13/36"),
    "plan-sigma-null": (["plan", "--input"], "plan61.json", ("sigma",), None),
}


@pytest.mark.parametrize("field", sorted(NOT_NUMBERS))
def test_number_field_that_is_not_a_finite_number_is_an_input_error(tmp_path, field):
    command, base, path, value = NOT_NUMBERS[field]
    problem = (load_fixture(base) if isinstance(base, str)
               else json.loads(json.dumps(BASES[base])))
    target = tmp_path / "number.json"
    target.write_text(json.dumps(set_at(problem, path, value)))
    assert_one_error_line(*run_main(command + [str(target)]))


def run_report(tmp_path, argv, problem):
    """(exit status, report) of ``argv`` on ``problem`` written as JSON."""
    target, out = tmp_path / "problem.json", tmp_path / "report.json"
    target.write_text(json.dumps(problem))
    code, _ = run_main(argv + [str(target), "--out", str(out)])
    return code, json.loads(out.read_text())


def test_number_fields_take_ints_floats_and_rationals(tmp_path):
    # the phi point once rejected {"num", "den"} with a TypeError
    point = json.loads(json.dumps(BASES[1]))
    code, rep = run_report(tmp_path, ["semistable", "--input"],
                           set_at(point, ("point", 1), rational(1, 3)))
    assert code == 0 and rep["state"] == "positive"
    line = load_fixture("sublevel_line.json")
    _, one = run_report(tmp_path, SUBLEVEL, line)
    for weight in (2, 2.0, rational(4, 2)):
        code, two = run_report(tmp_path, SUBLEVEL, dict(line, weight=weight))
        assert code == 0 and two["max_estimate"] == 2 * one["max_estimate"]
    plan = load_fixture("plan61.json")
    assert run_report(tmp_path, ["plan", "--input"], plan)[1]["sigma"] == rational(13, 36)
    for sigma in (0.5, 1):  # numbers, at which the plan is infeasible
        got = run_report(tmp_path, ["plan", "--input"], dict(plan, sigma=sigma))
        assert got == (2, {"plan": None})
