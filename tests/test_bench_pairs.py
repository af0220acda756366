"""The per-metric labels of ``tools/bench_pairs.py``'s summary, on hand-made
runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "ops_per_kref", "unit": "1/kref", "better": "higher", "bound": 0.24}]


def runs(**metrics):
    """Hand-made results of one side: one run per position of the lists."""
    n = len(next(iter(metrics.values())))
    return [{"metrics": {k: v[i] for k, v in metrics.items()}, "failed": 0,
             "correct": True, "digests": ("r", "l")} for i in range(n)]


def labels(parent: dict, change: dict) -> dict:
    results = {"parent": runs(**parent), "change": runs(**change)}
    out = bench_pairs.summarize(results, METRICS, len(results["parent"]))
    return {name: m["label"] for name, m in out["metrics"].items()}


def test_summary_labels_each_metric():
    # setup_s: +39% on a steady parent is worse (a bound of 0.25 is relative);
    # ops_per_kref: -5% is within the bound
    got = labels({"setup_s": [0.076] * 4, "ops_per_kref": [100, 101, 99, 100]},
                 {"setup_s": [0.105] * 4, "ops_per_kref": [95, 96, 94, 95]})
    assert got == {"setup_s": "worse", "ops_per_kref": "within_bound"}


def test_wide_parent_spread_is_unresolved_unless_the_change_beats_every_run():
    # the parent's setup_s jumps between two levels: IQR 0.029 over a median
    # of about 0.09 exceeds 0.25; a change inside that spread is unresolved,
    # one below every parent run is not
    parent = {"setup_s": [0.076, 0.105, 0.076, 0.105], "ops_per_kref": [100] * 4}
    got = labels(parent, {"setup_s": [0.08, 0.1, 0.08, 0.1], "ops_per_kref": [100] * 4})
    assert got == {"setup_s": "unresolved", "ops_per_kref": "within_bound"}
    got = labels(parent, {"setup_s": [0.07, 0.07, 0.07, 0.07], "ops_per_kref": [100] * 4})
    assert got["setup_s"] == "within_bound"
