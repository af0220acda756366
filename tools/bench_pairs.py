"""Alternating benchmark pairs: a parent commit against the working tree.

    python3 tools/bench_pairs.py --label NAME [--parent COMMIT] [--pairs 10]
        [--seed 7] [--claim TEXT]

The parent commit is exported with ``git archive`` into
``.bench_build/parent-<sha>/`` and the working tree (tracked and untracked
files that git does not ignore) is copied into ``.bench_build/change/``, so
both sides run from a fresh directory of the same depth.  Each pair runs
``perfbench/run.py --trace 0`` once on either side; even pairs run the parent
first and odd pairs the change first, and the pairs go round the workloads
in turn so that slow drift of the machine is spread over all of them.  The
workloads and the run length are BENCHMARK.json's ``workloads`` and
``run_seconds``.

The result is ``BENCH_<label>.json`` at the root of the repository: for
each workload and each end-to-end metric of BENCHMARK.json,
both sides' runs with their median and quartiles (inclusive method), the
share of pairs in which the change is better (ties count for neither), the
change's median over the parent's and a ``label`` against the metric's
``bound`` (see :func:`label`); and the report and LP digests each side
printed.  Only the standard library is used; nothing under
``perfbench/`` is imported or written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def git(*args: str, text: bool = True):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=text).stdout


def export_parent(commit: str) -> tuple[str, Path]:
    """(short sha, directory) of ``git archive`` of the commit, made once."""
    sha = git("rev-parse", "--short", commit).strip()
    dest = BUILD / f"parent-{sha}"
    if not dest.is_dir():
        tmp = BUILD / f"parent-{sha}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha, text=False))) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tmp, filter="data")
            else:
                tar.extractall(tmp)
        tmp.rename(dest)
    return sha, dest


def copy_working_tree() -> Path:
    """A fresh copy of every file of the working tree that git does not ignore."""
    dest = BUILD / "change"
    shutil.rmtree(dest, ignore_errors=True)
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        path = ROOT / name
        if name and path.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, dest / name)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process: its metrics, digests and exit status."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"{tree.name}/{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    detail, summary = json.loads(lines[-2]), json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in summary["metrics"].items()},
            "correct": summary["correct"], "failed": summary["failed"],
            "digests": (detail["report_digest"], detail["lp_results_digest"]),
            "env": detail["env"]}


def spread(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def label(par: list, chg: list, better: str, bound: float) -> str:
    """One metric's runs against its relative ``bound``: ``worse`` when the
    change's median is worse than the parent's by more than the bound times
    the parent's median; else ``unresolved`` when the parent's interquartile
    range exceeds the bound times its median, unless every change run beats
    every parent run; else ``within_bound``."""
    sign = 1 if better == "higher" else -1
    mp, mc = statistics.median(par), statistics.median(chg)
    if sign * (mp - mc) > bound * abs(mp):
        return "worse"
    q1, _, q3 = statistics.quantiles(par, n=4, method="inclusive")
    if q3 - q1 > bound * abs(mp) and min(sign * c for c in chg) <= max(sign * p for p in par):
        return "unresolved"
    return "within_bound"


def summarize(results: dict, end_to_end: list, n: int) -> dict:
    """The per-metric comparison of one workload's pairs."""
    metrics = {}
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        par = [r["metrics"][name] for r in results["parent"]]
        chg = [r["metrics"][name] for r in results["change"]]
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        mp, mc = statistics.median(par), statistics.median(chg)
        metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                         "parent": spread(par), "change": spread(chg),
                         "change_wins": f"{wins}/{n}",
                         "change_over_parent": mc / mp if mp else None,
                         "label": label(par, chg, m["better"], m["bound"])}
    digests = {side: sorted({"report %s / lp %s" % r["digests"] for r in runs})
               for side, runs in results.items()}
    return {"pairs": n,
            "failed_ops": [sum(r["failed"] for r in results[s]) for s in ("parent", "change")],
            "correct": [all(r["correct"] for r in results[s]) for s in ("parent", "change")],
            "digests": digests,
            "digests_identical": digests["parent"] == digests["change"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--claim", default=None)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("need --pairs >= 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds, end_to_end = bench["run_seconds"], bench["end_to_end"]

    sha, parent = export_parent(args.parent)
    trees = {"parent": parent, "change": copy_working_tree()}
    results = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        for w in workloads:
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(trees[side], w, args.seed, seconds)
                results[w][side].append(res)
                print(f"pair {i + 1}/{args.pairs} {w} {side}: ops_per_kref "
                      f"{res['metrics']['ops_per_kref']:.1f}", file=sys.stderr)

    env = results[workloads[0]]["parent"][0]["env"]
    report = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "machine": {"nproc": os.cpu_count(), "python": env["python"],
                    "numpy": env["numpy"], "system": f"{platform.system()} {platform.machine()}"},
        "parent_commit": sha,
        "method": f"parent = git archive of {sha}, change = a copy of the working tree, "
                  f"each in its own directory under .bench_build/; even pairs run the parent "
                  f"first, odd pairs the change first; pairs go round the workloads in turn; "
                  f"change_wins counts pairs where the change is better, ties counting for "
                  f"neither; quartiles by the inclusive method",
        "claim": args.claim,
        "workloads": {w: {"seed": args.seed, "seconds": seconds,
                          **summarize(results[w], end_to_end, args.pairs)}
                      for w in workloads},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
