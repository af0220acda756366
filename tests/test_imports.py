"""Each module of the package loads exactly the package modules it needs,
each module of the package, each test module and each tool uses every
name it imports, every private module-level function or class is used
somewhere in the package, every option of the public interface is set by
some caller, every public function, class and method has a caller outside
the unit tests, every function the benchmark traces still exists, every
verdict detail is a stage text the benchmark can parse, the verdict's exact
stages carry the benchmark's stage names, only ``lp`` scales rationals to
integers over an lcm, one function of the package solves for order-raising
ops, one function multiplies polynomial matrices and one expands
polynomial determinants, the verdict rechecks its certificates in one
place, the sparse conditions have one home, the package has no ``assert`` statement and only
the CLI prints."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semistab"
SPANS = ROOT / "perfbench" / "spans.py"
MODULES = sorted(SRC.glob("*.py"))

# the package modules that importing each module loads in a fresh
# interpreter, itself included; the exact side (the package, lp) is numpy-free
CLOSURES = {
    "semistab": set(),
    "lp": {"lp"},
    "polycore": {"lp", "polycore"},
    "blockdecomp": {"blockdecomp", "lp", "polycore"},
    "gitnorm": {"gitnorm", "lp", "polycore"},
    "tileplan": {"blockdecomp", "lp", "polycore", "tileplan"},
    "fixtures": {"blockdecomp", "fixtures", "lp", "polycore"},
    "radon": {"blockdecomp", "gitnorm", "lp", "polycore", "radon"},
    "sublevel": {"blockdecomp", "gitnorm", "lp", "polycore", "sublevel"},
    "cli": {"blockdecomp", "cli", "gitnorm", "lp", "polycore", "radon", "sublevel",
            "tileplan"},
}
NUMPY_FREE = {"semistab", "lp"}


def loaded_by(module: str) -> tuple:
    """(package modules, whether numpy is loaded) after importing ``module``
    of the package, or the package itself, in a fresh interpreter."""
    name = "semistab" if module == "semistab" else f"semistab.{module}"
    code = ("import json, sys\n"
            f"import {name}\n"
            "print(json.dumps([sorted(m[9:] for m in sys.modules if m.startswith('semistab.')),"
            " 'numpy' in sys.modules]))")
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    mods, numpy = json.loads(out)
    return set(mods), numpy


def test_closure_table_lists_every_module():
    assert set(CLOSURES) == {"semistab" if p.stem == "__init__" else p.stem for p in MODULES}


@pytest.mark.parametrize("module", sorted(CLOSURES))
def test_module_loads_only_its_closure(module):
    # the package namespace re-exports nothing, so a module loads only what
    # it imports; a checker of exact certificates stays free of the float side
    mods, numpy = loaded_by(module)
    assert mods == CLOSURES[module]
    assert not (numpy and module in NUMPY_FREE)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_each_kind():
    src = "import os.path\nimport numpy as np\nfrom a import b, c as e\nb(np)\n"
    assert unused_imports(src) == ["e", "os"]


# the benchmark under perfbench/ is left out: it is changed only with the
# benchmark itself
LINTED = MODULES + [p for d in ("tests", "tools") for p in sorted((ROOT / d).glob("*.py"))]


@pytest.mark.parametrize("path", LINTED, ids=lambda p: (
    p.name if p.parent == SRC else str(p.relative_to(ROOT))))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def names_used(node) -> Counter:
    """How often each name is read below ``node``, as a bare name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_private(sources: list) -> list:
    """Module-level ``_private`` functions and classes that no code outside
    their own definition refers to, across all ``sources``."""
    trees = [ast.parse(src) for src in sources]
    used = sum((names_used(t) for t in trees), Counter())
    return sorted(
        node.name for t in trees for node in t.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and used[node.name] == names_used(node)[node.name])


def test_unreferenced_private_finds_dead_helpers():
    a = "def _dead(n):\n    return _dead(n - 1)\n\ndef _live():\n    pass\n"
    b = "from a import _live\nclass _Unused:\n    pass\nx = a._live() if _live else 0\n"
    assert unreferenced_private([a, b]) == ["_Unused", "_dead"]


def test_every_private_helper_is_used():
    paths = sorted(SRC.glob("*.py"))
    assert unreferenced_private([p.read_text() for p in paths]) == []


def defaulted_parameters(source: str) -> list:
    """(name, called as, parameter, position) for each defaulted parameter of
    a public function, a public method or an ``__init__`` in ``source``.  A
    class is called by its own name; the position counts the arguments a
    call passes (so not ``self``) and is None for a keyword-only parameter."""
    def params(fn, skip):
        a = fn.args
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        return ([(p.arg, i - skip) for i, p in enumerate(pos) if i >= first]
                + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None])

    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out += [(f"{node.name}.{p}", node.name, p, i) for p, i in params(node, 0)]
        if not isinstance(node, ast.ClassDef):
            continue
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name == "__init__":
                out += [(f"{node.name}.{p}", node.name, p, i) for p, i in params(fn, 1)]
            elif not fn.name.startswith("_"):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                out += [(f"{node.name}.{fn.name}.{p}", fn.name, p, i)
                        for p, i in params(fn, 0 if static else 1)]
    return out


def calls_made(source: str) -> list:
    """(called name, positional count, keywords) for each call in ``source``.
    Positional arguments from a ``*`` unpacking on are not counted, and a
    ``**`` unpacking sets no keyword."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        npos = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                    len(node.args))
        out.append((name, npos, {kw.arg for kw in node.keywords}))
    return out


def unset_options(modules: dict, callers: list) -> list:
    """``module.name`` of each defaulted parameter in the ``modules`` (name
    to source) that no call in the ``callers`` (sources) passes, by keyword
    or by position, to a function of that name."""
    calls = [c for src in callers for c in calls_made(src)]
    return sorted(
        f"{mod}.{name}" for mod, src in modules.items()
        for name, called, param, pos in defaulted_parameters(src)
        if not any(c == called and (param in kws or pos is not None and npos > pos)
                   for c, npos, kws in calls))


def test_unset_options_finds_each_kind():
    lib = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
           "def _g(a=1):\n    pass\n"
           "class K:\n"
           "    def __init__(self, a=1, b=2):\n        pass\n"
           "    def m(self, a=1):\n        pass\n"
           "    @staticmethod\n"
           "    def s(a=1, b=2):\n        pass\n")
    use = "f(0, 5)\nf(0, *xs, d=4)\nK(b=3)\nk.m(1)\nK.s(1, **kw)\n"
    assert unset_options({"lib": lib}, [use]) == ["lib.K.a", "lib.K.s.b", "lib.f.c"]


def test_every_option_is_set_by_a_caller():
    # TilePlanWeight's seed is a no-op kept with its restarts, which the
    # benchmark passes; both go in ROADMAP item 8's benchmark change
    allowed = {"sublevel.TilePlanWeight.seed"}
    callers = [p.read_text() for d in ("src", "perfbench", "tools", "tests")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unset_options({p.stem: p.read_text() for p in MODULES}, callers) == sorted(allowed)


def unreferenced_public(modules: dict, callers: list) -> list:
    """``module.name`` (``module.Class.method`` for a method) of each public
    module-level function or class and each public method in the ``modules``
    (name to source) whose name no code in the ``modules`` outside its own
    definition and no code in the ``callers`` (sources) refers to.  An
    import does not count as a reference.  The match is by name only: a
    method whose name another function or attribute shares (``zero``,
    ``to_json``) counts as called, and so does a dunder, which Python calls
    without naming it; such members need a line trace to be found dead."""
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    used = sum((names_used(t) for t in trees.values()), Counter())
    used += sum((names_used(ast.parse(src)) for src in callers), Counter())
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                         if isinstance(fn, ast.FunctionDef)]
            out += [f"{mod}.{qual}" for qual, d in defs if not d.name.startswith("_")
                    and used[d.name] == names_used(d)[d.name]]
    return sorted(out)


def test_unreferenced_public_finds_each_kind():
    lib = {"a": ("def live():\n    pass\n"
                 "def dead(n):\n    return dead(n - 1)\n"
                 "class K:\n"
                 "    def m(self):\n        pass\n"
                 "    def n(self):\n        return self.m()\n"
                 "    def _p(self):\n        pass\n"),
           "b": "from a import dead\nx = live()\n"}
    assert unreferenced_public(lib, ["k.n()\n"]) == ["a.K", "a.dead"]


def test_every_public_name_has_a_caller():
    # a caller is the package itself, the benchmark, the tools or the
    # acceptance suite; a name that only its own unit tests call is dead
    allowed = {
        "polycore.hs_norm_sq_exact": "the exact norm of ROADMAP item 1's critical-point check",
        "radon.CurvatureForm.transformed": "moves the forms of ROADMAP item 1's corpus",
    }
    callers = [p.read_text() for p in [*sorted((ROOT / "perfbench").rglob("*.py")),
                                        *sorted((ROOT / "tools").rglob("*.py")),
                                        ROOT / "tests" / "test_acceptance.py"]]
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    # an allowed name that is gone or has gained a caller leaves the list
    assert unreferenced_public(modules, callers) == sorted(allowed)


def spans_constant(name: str):
    """A module-level literal of ``perfbench/spans.py``, read as text, so that
    no bytecode is written next to the benchmark."""
    return next(ast.literal_eval(node.value) for node in ast.parse(SPANS.read_text()).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name])


def test_every_traced_function_exists():
    traced = spans_constant("TRACED")
    missing = [f"{mod}.{name}" for mod, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"semistab.{mod}"), name, None))]
    assert traced and missing == []


def verdict_details(source: str) -> list:
    """The ``detail`` argument of every ``SemistabilityVerdict(...)`` call in
    ``source``: a string, or (prefix,) for an f-string and None for anything
    else."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "SemistabilityVerdict"):
            continue
        arg = next((kw.value for kw in node.keywords if kw.arg == "detail"),
                   node.args[3] if len(node.args) > 3 else None)
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append(arg.value)
        elif (isinstance(arg, ast.JoinedStr) and arg.values
              and isinstance(arg.values[0], ast.Constant)):
            out.append((arg.values[0].value,))
        else:
            out.append(None)
    return out


def test_verdict_details_finds_each_kind():
    src = ('SemistabilityVerdict("a", None, 0.0, "zero form")\n'
           'SemistabilityVerdict("b", detail=f"best upper bound {v}")\n'
           'SemistabilityVerdict("c", None, 0.0, text)\n')
    assert verdict_details(src) == ["zero form", ("best upper bound ",), None]


def test_every_verdict_detail_is_a_known_stage():
    # perfbench/spans.py fails an op whose verdict detail it cannot parse
    known = {text for text, _ in spans_constant("STAGES")}
    details = verdict_details((SRC / "radon.py").read_text())
    unknown = [d for d in details
               if not (d in known or isinstance(d, tuple)
                       and d[0].startswith("best upper bound "))]
    assert details and unknown == []


def test_exact_stage_names_are_benchmark_stage_names():
    # the names of radon.STAGES can become the verdict's stage field as they
    # are; the search stage reports two stages of the benchmark, critical
    # and undetermined
    from semistab.radon import STAGES

    known = {stage for _, stage in spans_constant("STAGES")}
    names = [name for name, _ in STAGES]
    assert names[-1] == "search" and set(names[:-1]) <= known


def lcm_calls(source: str) -> list:
    """Line numbers of the calls to ``lcm``, as ``math.lcm`` or bare, in
    ``source``."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)
            and (getattr(n.func, "attr", None) or getattr(n.func, "id", None)) == "lcm"]


def test_lcm_calls_finds_each_kind():
    src = "import math\nfrom math import lcm\nmath.lcm(2, 3)\nx = lcm(4)\nf(math.lcm)\n"
    assert lcm_calls(src) == [3, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_lp_scales_rationals_to_integers(path):
    # lp.integer_scale scales a rational vector over the lcm of its
    # denominators; no module keeps its own copy of it
    assert lcm_calls(path.read_text()) == [] or path.name == "lp.py"


def callers(source: str, name: str) -> list:
    """The module-level functions, and the methods as ``Class.method``, of
    ``source`` that call ``name``, as a bare name or as an attribute."""
    def calls(node):
        return any(isinstance(n, ast.Call) and name in (getattr(n.func, "attr", None),
                                                        getattr(n.func, "id", None))
                   for n in ast.walk(node))

    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and calls(node):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{fn.name}" for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and calls(fn)]
    return out


def test_callers_finds_each_kind():
    src = ("def a():\n    return m.f(1)\n"
           "def b():\n    g = f\n    return g()\n"
           "class K:\n    def c(self):\n        return [f(x) for x in y]\n"
           "f(0)\n")
    assert callers(src, "f") == ["a", "K.c"]


def test_one_function_solves_for_order_raising_ops():
    # the column and the row pass of eliminate are one sweep, the column
    # pass run on the transposes; a second caller of the jet solve would be
    # a second copy of that sweep
    found = [f"{p.stem}.{fn}" for p in MODULES
             for fn in callers(p.read_text(), "_solve_jet_kill")]
    assert found == ["blockdecomp._raise_rows"]


def test_blockdecomp_solves_through_one_helper():
    # the flow's closure systems and the jet systems are one sparse solve;
    # a second caller of exact_solve would build its equations its own way
    assert callers((SRC / "blockdecomp.py").read_text(), "exact_solve") == [
        "_solve_linear_combo"]


def test_one_product_and_one_determinant_kernel():
    # reduced_product and the flow's exponential share the one sparse
    # product; the determinant-one check and the Plücker table share the
    # one Laplace expansion
    found = lambda name: [f"{p.stem}.{fn}" for p in MODULES
                          for fn in callers(p.read_text(), name)]
    assert found("pm_mul") == ["blockdecomp.reduced_product", "blockdecomp._flow"]
    assert found("maximal_minors") == ["blockdecomp.unimodular", "sublevel._minor_table"]


def test_verdict_rechecks_in_one_place():
    # every certificate the verdict returns is rechecked by the loop over
    # its stages; a stage that rechecked its own would be a second place
    assert callers((SRC / "radon.py").read_text(), "reverify") == ["semistability_verdict"]


def test_sparse_conditions_have_one_home():
    # the collision and adjacency conditions the criterion tests are the ones
    # its recheck tests again
    assert callers((SRC / "gitnorm.py").read_text(), "_sparse_obstruction") == [
        "sparse_criterion", "sparse_theta_holds"]


def asserts_and_prints(source: str) -> tuple:
    """Line numbers of the ``assert`` statements and of the calls to
    ``print`` in ``source``."""
    nodes = list(ast.walk(ast.parse(source)))
    return ([n.lineno for n in nodes if isinstance(n, ast.Assert)],
            [n.lineno for n in nodes if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "print"])


def test_asserts_and_prints_finds_each_kind():
    src = ("assert x\nprint(1)\ndef f():\n    assert y, 'm'\n"
           "    out.print(2)\n    return print\n")
    assert asserts_and_prints(src) == ([1, 4], [2])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_assert_and_only_the_cli_prints(path):
    # python -O strips assert statements, so checks raise real exceptions;
    # library code reports through return values, not stdout
    asserts, prints = asserts_and_prints(path.read_text())
    assert asserts == []
    assert prints == [] or path.name == "cli.py"
