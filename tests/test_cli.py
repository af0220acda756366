import json
import os
import subprocess
import sys

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args):
    # the child finds the package in this checkout, installed or not
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "semistab.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc


def fx(name):
    return os.path.join(FIXTURES, name)


def test_gitnorm_two_squares(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("gitnorm", "--input", fx("t2.json"), "--sigma", "1",
                   "--restarts", "8", "--out", str(out))
    assert proc.returncode == 0
    assert "2.000000" in proc.stdout
    report = json.loads(out.read_text())
    assert abs(report["value"] - 2.0) < 1e-9


def test_gitnorm_p63_sigma_3_16(tmp_path):
    # once a traceback: 'C is numerically singular' at det C ~ e^-56.6
    out = tmp_path / "r.json"
    proc = run_cli("gitnorm", "--input", fx("p63.json"), "--sigma", "3/16",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["status"] == "converged"
    assert abs(report["value"] - 3.6529141338528466) < 1e-9


def test_blockdecomp_verify_intro(tmp_path):
    proc = run_cli("blockdecomp", "--verify", fx("intro.json"))
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    assert "0 1 1" in proc.stdout and "0 2 3" in proc.stdout


def test_blockdecomp_eliminate_m61(tmp_path):
    out = tmp_path / "d.json"
    proc = run_cli("blockdecomp", "--input", fx("m61.json"), "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["decomposition"]["D"] == [[0, 1, 2], [0, 1, 3]]
    assert report["verified"]


def test_radon_exponents():
    proc = run_cli("radon", "--exponents", "--n", "3", "--n1", "3", "--k", "2")
    assert proc.returncode == 0
    assert "5/3" in proc.stdout


def test_radon_balanced():
    proc = run_cli("radon", "--balanced", fx("balanced_parabola.json"))
    assert proc.returncode == 0
    assert "3/2" in proc.stdout and "3" in proc.stdout


def test_polytope_and_destabilize():
    proc = run_cli("polytope", "--input", fx("t2.json"), "--sigma", "1")
    assert proc.returncode == 0 and "True" in proc.stdout
    proc = run_cli("destabilize", "--input", fx("p63_degree1.json"),
                   "--sigma", "0", "--sigma-uniform")
    assert proc.returncode == 0 and "margin" in proc.stdout
    proc = run_cli("destabilize", "--input", fx("t2.json"), "--sigma", "1")
    assert proc.returncode == 0 and "none" in proc.stdout


def test_plan_61(tmp_path):
    out = tmp_path / "p.json"
    proc = run_cli("plan", "--input", fx("plan61.json"), "--out", str(out))
    assert proc.returncode == 0
    assert "9/13" in proc.stdout
    report = json.loads(out.read_text())
    assert report["tau"] == {"num": 9, "den": 13}


def test_tiles_61():
    proc = run_cli("tiles", "--input", fx("m61_decomp.json"))
    assert proc.returncode == 0
    assert "(0, 1)" in proc.stdout


def test_hsnorm():
    proc = run_cli("hsnorm", "--input", fx("t2.json"))
    assert proc.returncode == 0
    assert "2.0" in proc.stdout


def test_sublevel_line(tmp_path):
    out = tmp_path / "s.json"
    proc = run_cli("sublevel", "--input", fx("sublevel_line.json"),
                   "--samples", "20000", "--omegas", "2", "--seed", "9",
                   "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert len(report["omegas"]) == 2
    assert report["max_estimate"] > 0


def test_semistable_tensor(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(
        {"tensor": [[[{"num": 1, "den": 1}]]]}))
    proc = run_cli("semistable", "--input", str(path))
    assert proc.returncode == 0
    assert "positive" in proc.stdout


def test_exit_code_input_error(tmp_path):
    proc = run_cli("gitnorm", "--input", "/nonexistent.json", "--sigma", "1")
    assert proc.returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    proc = run_cli("gitnorm", "--input", str(bad), "--sigma", "1")
    assert proc.returncode == 1
    assert "error" in proc.stderr


def one_error_line(proc):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_bad_rational_is_an_input_error():
    # the rational parser runs inside argparse, and its error once escaped
    # main's handler as a traceback
    for sigma in ("1/0", "one"):
        one_error_line(run_cli("gitnorm", "--input", fx("t2.json"), "--sigma", sigma))


def test_sublevel_rejects_files_without_its_fields(tmp_path):
    # m61.json is a bare matrix: it once ended in "KeyError: 'matrix'"
    one_error_line(run_cli("sublevel", "--input", fx("m61.json")))
    with open(fx("sublevel_line.json")) as fh:
        problem = json.load(fh)
    for key in ("domain", "tau"):
        path = tmp_path / f"no_{key}.json"
        path.write_text(json.dumps({k: v for k, v in problem.items() if k != key}))
        one_error_line(run_cli("sublevel", "--input", str(path), "--samples", "10"))


def test_zero_denominator_is_an_input_error(tmp_path):
    # once a ZeroDivisionError traceback
    with open(fx("t2.json")) as fh:
        matrix = json.load(fh)
    matrix["entries"][1][0][0]["den"] = 0
    path = tmp_path / "den0.json"
    path.write_text(json.dumps(matrix))
    one_error_line(run_cli("gitnorm", "--input", str(path), "--sigma", "1"))


def test_short_entry_grid_is_an_input_error(tmp_path):
    # a grid with fewer rows than p once raised IndexError under both verbs
    with open(fx("m61.json")) as fh:
        matrix = json.load(fh)
    matrix["entries"] = matrix["entries"][:-1]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(matrix))
    one_error_line(run_cli("gitnorm", "--input", str(path), "--sigma", "1"))
    one_error_line(run_cli("blockdecomp", "--input", str(path)))


def eye_json(n):
    one = [{"alpha": [0], "num": 1, "den": 1}]
    return {"p": n, "q": n, "d": 1,
            "entries": [[one if i == j else [] for j in range(n)] for i in range(n)]}


@pytest.mark.parametrize("entries", [
    [[[], [], []], [[], [], []]],                        # the zero matrix
    [[[{"alpha": [1], "num": 1, "den": 1}], [], []],     # rank 1: row 2 = 2 row 1
     [[{"alpha": [1], "num": 2, "den": 1}], [], []]],
], ids=["zero", "rank-1"])
def test_blockdecomp_rejects_a_matrix_below_generic_rank_p(tmp_path, entries):
    # under --input both once exited 0 with "self-check PASS"; under --verify
    # the zero matrix once passed with D = 1
    matrix = {"p": 2, "q": 3, "d": 1, "entries": entries}
    bundle = {"matrix": matrix,
              "decomposition": {"row_groups": [2], "col_groups": [3], "D": [[1]],
                                "A": eye_json(2), "B": eye_json(3)}}
    for flag, obj in (("--input", matrix), ("--verify", bundle)):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        one_error_line(run_cli("blockdecomp", flag, str(path)))


def test_tiles_on_a_bare_matrix_is_an_input_error():
    # once "KeyError: 'row_groups'"
    one_error_line(run_cli("tiles", "--input", fx("m61.json")))


def test_plan_without_a_decomposition_is_an_input_error():
    # once "KeyError: 'decomposition'"
    one_error_line(run_cli("plan", "--input", fx("t2.json")))


def test_malformed_plan_is_an_input_error(tmp_path):
    # a tile I = [0, 7] on a decomposition with 2 row groups once printed
    # tau 9/13; a sigma with den 0 or no rational value once ended in a
    # traceback
    with open(fx("plan61.json")) as fh:
        problem = json.load(fh)
    outside = json.loads(json.dumps(problem))
    outside["tiles"][0]["I"] = [0, 7]
    for bad in (outside, dict(problem, sigma={"num": 1, "den": 0}),
                dict(problem, sigma="abc")):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(bad))
        one_error_line(run_cli("plan", "--input", str(path)))


def term(alpha, num=1, den=1):
    return {"alpha": alpha, "num": num, "den": den}


# phi = x0 + x1 t0 in (x0, x1, t0): transverse at the origin
PHI = {"n": 2, "n1": 2, "k": 1, "phi": [[term([1, 0, 0]), term([0, 1, 1])]]}
ONE = {"num": 1, "den": 1}
MALFORMED = {
    "phi-den-0": ("semistable", dict(PHI, phi=[[term([1, 0, 0], den=0)]])),
    "phi-alpha-length": ("semistable", dict(PHI, phi=[[term([1, 0])]])),
    "k-out-of-range": ("semistable", dict(PHI, k=2)),
    "tensor-den-0": ("semistable", {"tensor": [[[{"num": 1, "den": 0}]]]}),
    "ragged-tensor": ("semistable", {"tensor": [[[ONE, ONE], [ONE]]]}),
    "empty-tensor": ("semistable", {"tensor": []}),
    "empty-tensor-plane": ("semistable", {"tensor": [[]]}),
    "empty-tensor-row": ("semistable", {"tensor": [[[]]]}),
    "non-transverse-phi": ("semistable", dict(PHI, phi=[[term([1, 0, 1])]])),
    "balanced-without-alphas": ("radon", {"type": 1, "k": 1}),
}


def test_well_formed_phi_problem_is_decided(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(PHI))
    assert run_cli("semistable", "--input", str(path)).returncode in (0, 2)


@pytest.mark.parametrize("verb, problem", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_form_problem_is_an_input_error(tmp_path, verb, problem):
    # each of these once ended in a traceback
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    flag = "--balanced" if verb == "radon" else "--input"
    one_error_line(run_cli(verb, flag, str(path)))


def test_gitnorm_is_scale_free(tmp_path, capsys):
    # x^2 + 10^-k y^2 at sigma 1 has infimum 2 * 10^(-k/2); it was once
    # reported as 0.0 and drift-to-zero for k >= 14
    from semistab.cli import main

    for k in range(31):
        path, out = tmp_path / f"x{k}.json", tmp_path / f"r{k}.json"
        terms = [{"alpha": [0, 2], "num": 1, "den": 10 ** k},
                 {"alpha": [2, 0], "num": 1, "den": 1}]
        path.write_text(json.dumps({"p": 1, "q": 1, "d": 2, "entries": [[terms]]}))
        assert main(["gitnorm", "--input", str(path), "--sigma", "1",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        expect = 2 * 10 ** (-k / 2)
        assert report["status"] == "converged", k
        assert abs(report["value"] - expect) <= 1e-6 * expect, k
    capsys.readouterr()


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("scale, code", [((10 ** 200, 1), 0), ((1, 10 ** 250), 2)],
                         ids=["all-1e200", "one-entry-1e250"])
def test_semistable_report_is_strict_json(tmp_path, scale, code):
    # a report once held the bare tokens Infinity (the positive certificate's
    # foc_residual of the form times 10^200, and the value_bound of the
    # mixed-range form) that strict JSON parsers reject; they are now null.
    # The mixed-range form also printed 13 numpy RuntimeWarnings to stderr
    B = [[[3, 0], [3, 0]], [[-3, -1], [1, 0]]]
    B = [[[v * scale[0] for v in row] for row in plane] for plane in B]
    B[1][0][1] *= scale[1]
    path, out = tmp_path / "form.json", tmp_path / "r.json"
    path.write_text(json.dumps({"tensor": [[[{"num": v, "den": 1} for v in row]
                                            for row in plane] for plane in B]}))
    proc = run_cli("semistable", "--input", str(path), "--out", str(out))
    assert (proc.returncode, proc.stderr) == (code, "")
    strict_json(out.read_text())


def test_unknown_verb_rejected():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run_cli("sublevel", "--input", fx("sublevel_line.json"),
                "--samples", "5000", "--omegas", "1", "--seed", "4",
                "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_fixture_roundtrips():
    # every polynomial-matrix fixture survives parse -> serialize -> parse
    from semistab.polycore import polymatrix_from_json, polymatrix_to_json

    for name in os.listdir(FIXTURES):
        with open(fx(name)) as fh:
            obj = json.load(fh)
        candidates = []
        if "entries" in obj:
            candidates.append(obj)
        if "matrix" in obj:
            candidates.append(obj["matrix"])
        for cand in candidates:
            M = polymatrix_from_json(cand)
            again = polymatrix_from_json(polymatrix_to_json(M))
            assert again == M


# file, the part of it that is built (None for all), builder in semistab.fixtures
SHIPPED = [
    ("m61.json", None, "example61_matrix"),
    ("m61_decomp.json", "matrix", "example61_matrix"),
    ("intro.json", None, "intro_decomposition"),
    ("m63.json", None, "example63_decomposition"),
    ("p63.json", None, "example63_P"),
    ("p63_degree1.json", None, "example63_degree1_subtile"),
    ("t2.json", None, "two_squares"),
]


@pytest.mark.parametrize("name, part, builder", SHIPPED, ids=[s[0] for s in SHIPPED])
def test_shipped_fixture_equals_its_builder(name, part, builder):
    # the JSON files and semistab.fixtures are two copies of the worked
    # examples, which must not drift apart
    from semistab import fixtures
    from semistab.polycore import polymatrix_to_json

    built = getattr(fixtures, builder)()
    if isinstance(built, tuple):  # (matrix, decomposition)
        M, decomp = built
        built = {"matrix": polymatrix_to_json(M), "decomposition": decomp.to_json()}
    else:
        built = polymatrix_to_json(built)
    with open(fx(name)) as fh:
        shipped = json.load(fh)
    assert (shipped if part is None else shipped[part]) == built


def test_sublevel_rejects_bad_sample_counts():
    # --samples 0 once ended in a ZeroDivisionError traceback, and a negative
    # count under --stratified printed an estimate
    for flags in (["--samples", "0"], ["--samples", "-5", "--stratified"],
                  ["--omegas", "0"]):
        proc = run_cli("sublevel", "--input", fx("sublevel_line.json"), *flags)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""


def test_sublevel_stratified_flag(tmp_path):
    out = tmp_path / "s.json"
    proc = run_cli("sublevel", "--input", fx("sublevel_line.json"),
                   "--samples", "20000", "--omegas", "1", "--seed", "3",
                   "--stratified", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["omegas"][0]["estimate"] > 0
