"""semistab benchmark: one workload per process, seeded inputs, checked answers.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; semistab is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(see BENCHMARK.json and perfbench/NOTES.md).  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details (environment, digests, exceptions per op, stage counts).
Exit status: 0 when every decisive answer is right, 1 when one is wrong,
2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import reference_s  # noqa: E402
from spans import STAGE_NAMES, LpDigest, Tracer, lp_digest_patch  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

# set-up repeats a fixed number of times per workload (a cheap set-up is a
# tenth of a second and noisy; sublevel's builds the tile-plan weight, ~2 s)
SETUP_REPS = {"certify": 9, "orbit": 9, "incidence": 9, "sublevel": 3}
# op_tail_ref percentile per workload, over the ops of a pass (certify 25,
# orbit 10, incidence 18, sublevel 23).  Each falls among ops of like cost,
# away from a gap where it would jump between op kinds: certify the (5,2,3)
# verdicts, orbit the p63 solves, incidence the --verify runs on m61_decomp
# and m63, sublevel the slowest fresh-basis estimates.
TAIL_PERCENTILE = {"certify": 75, "orbit": 75, "incidence": 90, "sublevel": 90}
SUBMODULES = ("lp", "polycore", "gitnorm", "radon", "blockdecomp", "tileplan",
              "sublevel", "fixtures", "cli")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "ops_per_kref": "1/kref", "op_p50_ref": "ref", "op_tail_ref": "ref",
    "ops_ok_share": "share", "decided_share": "share",
    "answers_correct_share": "share", "peak_rss_mb": "MB",
}

# per-layer self-time share -> the span name, or the module, it sums
SELF_SHARES = {
    "lp.self_share": "lp",
    "polycore.self_share": "polycore",
    "polycore.act_group_float_self_share": "polycore.act_group_float",
    "polycore.act_group_exact_self_share": "polycore.act_group_exact",
    "polycore.support_set_self_share": "polycore.support_set",
    "gitnorm.self_share": "gitnorm",
    "gitnorm.git_norm_self_share": "gitnorm.git_norm",
    "gitnorm.minimize_diagonal_self_share": "gitnorm.minimize_diagonal",
    "gitnorm.kempf_ness_polish_self_share": "gitnorm.kempf_ness_polish",
    "gitnorm.find_destabilizer_self_share": "gitnorm.find_destabilizer",
    "radon.self_share": "radon",
    "radon.verdict_self_share": "radon.semistability_verdict",
    "radon.pencil_self_share": "radon.pencil_destabilizer",
    "blockdecomp.self_share": "blockdecomp",
    "blockdecomp.eliminate_self_share": "blockdecomp.eliminate",
    "blockdecomp.verify_self_share": "blockdecomp.verify_block_decomposition",
    "blockdecomp.tile_map_self_share": "blockdecomp.tile_map",
    "tileplan.solve_plan_self_share": "tileplan.solve_plan",
    "sublevel.self_share": "sublevel",
    "cli.self_share": "cli",
    "bench.self_share": "bench",
}
# per-layer call count -> the span name it counts
CALL_COUNTS = {
    "lp.calls": "lp.solve_eq_lp",
    "polycore.act_group_float_calls": "polycore.act_group_float",
    "polycore.act_group_exact_calls": "polycore.act_group_exact",
    "gitnorm.minimize_diagonal_calls": "gitnorm.minimize_diagonal",
    "gitnorm.find_destabilizer_calls": "gitnorm.find_destabilizer",
    "gitnorm.membership_calls": "gitnorm.polytope_membership",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


# -- set-up ------------------------------------------------------------------------------


def drop_semistab():
    for name in [n for n in sys.modules if n == "semistab" or n.startswith("semistab.")]:
        del sys.modules[name]
    gc.collect()  # free the previous import before the next one is timed


def import_semistab(src: Path):
    pkg = importlib.import_module("semistab")
    if Path(pkg.__file__).resolve().parent != (src / "semistab").resolve():
        raise BenchError(f"imported semistab from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"semistab.{name}")
                              for name in SUBMODULES})


def set_up(workload: str, seed: int, ctx: Context):
    """Import semistab afresh and build the inputs several times; the last
    build is the one used.  numpy is imported before timing."""
    times, infos = [], []
    for _ in range(SETUP_REPS[workload]):
        ctx.wrong.clear()
        drop_semistab()
        t0 = time.perf_counter()
        mods = import_semistab(ctx.root / "src")
        corpus = WORKLOADS[workload](mods, seed, ctx)
        times.append(time.perf_counter() - t0)
        infos.append(corpus.info)
    return mods, corpus, times, infos


# -- running ops -------------------------------------------------------------------------


def _json_default(v):
    if isinstance(v, Fraction):
        return str(v)
    if hasattr(v, "tolist"):
        return v.tolist()
    raise TypeError(f"not serializable: {type(v)}")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


class Ledger:
    """Outcomes of every op run, latencies per op id (in seconds, and in units
    of the reference kernel), and the first pass's report digest."""

    def __init__(self):
        self.latencies = {}
        self.relative = {}
        self.attempted = self.failed = self.decided = self.correct = 0
        self.wrong = []
        self.exceptions = {}
        self.defects = {}
        self.undetermined = set()
        self.first_report = {}
        self.digest = hashlib.sha256()

    def record(self, op, latency, raw, exc, digest: bool, relative=None):
        self.latencies.setdefault(op.id, []).append(latency)
        if relative is not None:
            self.relative.setdefault(op.id, []).append(relative)
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            kind = type(exc).__name__
            self.exceptions[op.id] = kind
            if op.known_defect is None or op.known_defect[0] != kind:
                self.wrong.append(f"{op.id}: unexpected {kind}: {exc}")
            else:
                self.defects[op.id] = op.known_defect[1]
            report = canonical({"exception": kind})
        else:
            try:
                res = op.post(raw) if op.post else raw
                outcome = op.check(res)
                report = canonical(op.canon(res))
            except Exception as err:  # a check that cannot read the result
                self.wrong.append(f"{op.id}: result not checkable: {err!r}")
                return
            self.decided += outcome.decisive
            self.correct += outcome.correct
            if outcome.wrong:
                self.wrong.append(outcome.wrong)
            if outcome.defect:
                self.defects[op.id] = outcome.defect
            if not outcome.decisive:
                self.undetermined.add(op.id)
        first = self.first_report.setdefault(op.id, report)
        if first != report:
            self.wrong.append(f"{op.id}: report differs from its first run")
        if digest:
            self.digest.update(f"{op.id}\t{report}\n".encode())


def run_pass(ops, ledger: Ledger, digest: bool, tracer=None, refs=None) -> float:
    """Run one pass; returns the summed op time in seconds.  With ``refs``
    (the reference kernel's times so far), the kernel runs after each op, and
    the op's latency is also recorded over the mean of the kernel's times
    just before and just after it."""
    total = 0.0
    for op in ops:
        raw = exc = None
        if tracer is None:
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception as err:
                exc = err
            latency = time.perf_counter() - t0
        else:
            with tracer.op_span(op.id) as span:
                try:
                    raw = op.run()
                except Exception as err:
                    exc = err
            latency = span.dur
        total += latency
        relative = None
        if refs is not None:
            refs.append(reference_s())
            relative = latency / (0.5 * (refs[-2] + refs[-1]))
        ledger.record(op, latency, raw, exc, digest, relative)
    return total


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_info(values, pct) -> dict:
    """Where the tail percentile falls among the ops of a pass."""
    n = len(values)
    p = percentile(values, pct)
    # the highest percentile that has at least ten ops beyond it
    top = 100.0 * (n - 10) / n if n > 10 else None
    return {"percentile": pct, "ops": n,
            "ops_beyond": sum(1 for x in values if x > p),
            "highest_pct_with_10_beyond": top,
            "value_there_ref": percentile(values, top) if top is not None else None}


# -- the two modes -----------------------------------------------------------------------


def enough(start: float, passes: int, seconds: float) -> bool:
    """True when one more whole pass would end further from ``seconds`` of
    wall time than stopping now."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / passes >= seconds


def measure(mods, corpus, seconds: float, tail_pct: float):
    """Run the pass over and over, with the reference kernel after each op.
    An op's figure is the median over its runs of its latency in units of the
    kernel (see reference.py).  The detail line keeps the seconds: each op's
    best run, and the kernel's own times."""
    ledger = Ledger()
    holder = [LpDigest()]
    refs = [reference_s()]
    start = time.perf_counter()
    with lp_digest_patch(mods, holder):
        busy = run_pass(corpus.ops, ledger, digest=True, refs=refs)
        lp_digest, holder[0] = holder[0], None
        passes = 1
        while not enough(start, passes, seconds):
            busy += run_pass(corpus.ops, ledger, digest=False, refs=refs)
            passes += 1
    rel = [statistics.median(r) for r in ledger.relative.values()]
    best = [min(lat) for lat in ledger.latencies.values()]
    ok = ledger.attempted - ledger.failed
    metrics = {
        "ops_per_kref": 1000 * ok / passes / sum(rel),
        "op_p50_ref": statistics.median(rel),
        "op_tail_ref": percentile(rel, tail_pct),
        "ops_ok_share": ok / ledger.attempted,
        "decided_share": ledger.decided / ledger.attempted,
        "answers_correct_share": ledger.correct / ledger.attempted,
    }
    detail = {"passes": passes, "ops_per_pass": len(rel), "busy_s": busy,
              "tail": tail_info(rel, tail_pct),
              "reference_ms": {"median": 1000 * statistics.median(refs),
                               "min": 1000 * min(refs), "max": 1000 * max(refs)},
              "best_run_ms": {"p50": 1000 * statistics.median(best),
                              "tail": 1000 * percentile(best, tail_pct),
                              "pass": 1000 * sum(best)},
              "lp_results_digest": lp_digest.hexdigest(), "lp_count": lp_digest.count}
    return ledger, metrics, detail


def measure_traced(mods, corpus, seconds: float):
    """Pass over the inputs, running each op untraced and traced back
    to back, so that drift in machine speed hits both alike; which goes first
    alternates, so that the warm second run favours neither.  Counts come from
    each traced pass and must repeat exactly."""
    ledger = Ledger()
    ops = corpus.ops
    untraced_s, traced_s, tracers = [], [], []
    start = time.perf_counter()
    while not tracers or not enough(start, len(tracers), seconds):
        tracer = Tracer(mods)
        u = t = 0.0
        for i, op in enumerate(ops):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    with tracer.patch():
                        t += run_pass([op], ledger, digest=False, tracer=tracer)
                else:
                    u += run_pass([op], ledger, digest=not tracers)
        untraced_s.append(u)
        traced_s.append(t)
        tracers.append(tracer)
    first = tracers[0]
    for t in tracers[1:]:
        if t.counts != first.counts or t.calls != first.calls:
            ledger.wrong.append("traced counters differ between identical passes")
        if t.lp_digest.hexdigest() != first.lp_digest.hexdigest():
            ledger.wrong.append("LP results differ between identical passes")
    for t in tracers:
        ledger.wrong.extend(t.errors)

    op_s = sum(traced_s)
    by_name, by_module = {}, {}
    for t in tracers:
        for name, s in t.self_s.items():
            by_name[name] = by_name.get(name, 0.0) + s
        for mod, s in t.module_self_s().items():
            by_module[mod] = by_module.get(mod, 0.0) + s

    def share(key):
        return (by_name.get(key, 0.0) if "." in key else by_module.get(key, 0.0)) / op_s

    c, calls = first.counts, first.calls
    lp_calls = calls["lp.solve_eq_lp"]
    samples = c["sublevel.samples"]
    attempts = c["radon.random_frame_attempts"]
    est_s = by_name.get("sublevel.estimate_integral", 0.0) / len(tracers)
    metrics = {name: share(key) for name, key in SELF_SHARES.items()}
    metrics.update({name: calls[key] for name, key in CALL_COUNTS.items()})
    metrics.update({
        "lp.infeasible_share": c["lp.infeasible"] / lp_calls if lp_calls else 0.0,
        "lp.mean_cells": c["lp.cells"] / lp_calls if lp_calls else 0.0,
        "gitnorm.inner_solves": c["gitnorm.inner_solves"],
        "gitnorm.newton_iterations": c["gitnorm.newton_iterations"],
        "radon.random_frame_attempts": attempts,
        "radon.random_frame_useful_share":
            c["radon.stage.random-frame"] / attempts if attempts else 0.0,
        "sublevel.samples": samples,
        "sublevel.samples_per_s": samples / est_s if est_s else 0.0,
        "sublevel.flagged_share": c["sublevel.flagged"] / samples if samples else 0.0,
        "trace.overhead_share":
            1.0 - statistics.median(untraced_s) / statistics.median(traced_s),
    })
    metrics.update({f"radon.stage.{s}": c[f"radon.stage.{s}"] for s in STAGE_NAMES})
    detail = {
        "passes": len(tracers), "ops_per_pass": len(ops),
        "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
        "lp_results_digest": first.lp_digest.hexdigest(), "lp_count": first.lp_digest.count,
        "self_s_per_pass": {k: v / len(tracers) for k, v in sorted(by_name.items())},
        "sublevel_ns_per_sample": 1e9 * est_s / samples if samples else None,
        "spans_per_pass": len(first.spans),
    }
    return ledger, metrics, detail


# -- environment and output --------------------------------------------------------------


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")
    return args


def run(args, out_dir: Path) -> int:
    src = ROOT / "src"
    if not (src / "semistab" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise BenchError(f"no semistab source tree (src/semistab, fixtures/) under {ROOT}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (not part of semistab's set-up time)

    ctx = Context(ROOT, out_dir, [])
    mods, corpus, setup_times, infos = set_up(args.workload, args.seed, ctx)
    if args.trace:
        ledger, metrics, detail = measure_traced(mods, corpus, args.seconds)
        weights = [i["weight_setup_s"] for i in infos if "weight_setup_s" in i]
        metrics["sublevel.weight_setup_share"] = (
            statistics.median(weights) / statistics.median(setup_times) if weights else 0.0)
        units = {}
    else:
        ledger, metrics, detail = measure(mods, corpus, args.seconds,
                                          TAIL_PERCENTILE[args.workload])
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    wrong = ctx.wrong + ledger.wrong
    detail.update({
        "workload": args.workload, "trace": args.trace, "env": environment(args.seed),
        "setup_s_samples": setup_times, "corpus": infos[-1],
        "report_digest": ledger.digest.hexdigest(),
        "exceptions": ledger.exceptions,
        "known_defects": ledger.defects,
        "undetermined": sorted(ledger.undetermined),
        "wrong": wrong,
    })
    print(json.dumps(detail, sort_keys=True, default=_json_default))
    print(json.dumps({
        "correct": not wrong,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units.get(name) or per_layer_unit(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0 if not wrong else 1


def per_layer_unit(name: str) -> str:
    if name.endswith("_share"):
        return "share"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        out_dir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            return run(args, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            try:
                out_dir.parent.rmdir()
            except OSError:
                pass
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
