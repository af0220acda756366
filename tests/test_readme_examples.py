"""The command block under "Command line" in README.md, run in-process from
the root of the checkout: each command's exit status, stdout and report
must match ``tests/golden/readme_examples.json`` byte for byte.

Every command writes its report into a temporary directory (``--out`` is
added, or moved there).  ``form.json`` is the 2 x 2 x 2 tensor base of
``tests/test_cli_inputs.py``.  ``python tests/test_readme_examples.py``
rewrites the golden file from the code on the path.
"""

import contextlib
import io
import json
import os
import re
import shlex
import tempfile
from pathlib import Path

import pytest

from semistab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "readme_examples.json"
FORM = {"tensor": [[[{"num": 1, "den": 1}, {"num": 0, "den": 1}],
                    [{"num": 0, "den": 1}, {"num": 1, "den": 1}]],
                   [[{"num": 0, "den": 1}, {"num": 1, "den": 1}],
                    [{"num": 1, "den": 2}, {"num": 0, "den": 1}]]]}


def readme_commands() -> list:
    """The lines of the README's command-line block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


def run_example(line: str, tmp: Path) -> dict:
    """Exit status, stdout and report of one README command line."""
    (tmp / "form.json").write_text(json.dumps(FORM))
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        del argv[argv.index("--out"):argv.index("--out") + 2]
    argv = [str(tmp / a) if a == "form.json" else a for a in argv]
    report = tmp / "report.json"
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--out", str(report)])
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "report": report.read_text()}


@pytest.mark.parametrize("line", readme_commands())
def test_readme_example_matches_its_golden_output(tmp_path, line):
    golden = json.loads(GOLDEN.read_text())
    assert line in golden, "a README command without a golden output"
    assert run_example(line, tmp_path) == golden[line]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = {line: run_example(line, Path(tmp)) for line in readme_commands()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
