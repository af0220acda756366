"""Each module of the package uses every name it imports, every private
module-level function or class is used somewhere in the package, every
function the benchmark traces still exists, and every verdict detail is a
stage text the benchmark can parse."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "semistab"
SPANS = SRC.parent.parent / "perfbench" / "spans.py"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
