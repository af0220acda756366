"""Build-time Monte-Carlo oracle for the 4 x 9 sublevel uniformity cap.

Runs a batch of anisotropic bases through the sublevel estimator at the
plan exponent and records the observed maximum plus a safety margin.  The
acceptance suite re-runs with fresh seeds and checks every estimate stays
below the recorded cap.

    python tools/build_sublevel_cap.py           # rewrite the fixture
    python tools/build_sublevel_cap.py --check   # compare, write nothing

``--check`` recomputes ``build_max`` and ``weight_constant`` and exits 1
when either differs from the fixture by more than CHECK_REL relative.
"""

import argparse
import json
import sys
from fractions import Fraction

sys.path.insert(0, "src")

from semistab import fixtures as fx
from semistab.blockdecomp import eliminate
from semistab.sublevel import TilePlanWeight, estimate_integral, sample_omega
from semistab.tileplan import solve_plan, tile_point

BUILD_SEED_BASE = 100_000
BUILD_DRAWS = 400
N_SAMPLES = 20_000
SCALE_MAX = 8.0
BOX = [(-50.0, 50.0), (-50.0, 50.0)]
MARGIN = 2.5
FIXTURE = "fixtures/sublevel61_cap.json"
CHECK_REL = 1e-9


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the fixture instead of rewriting it")
    args = ap.parse_args()
    M = fx.example61_matrix()
    _, _, _, dec = eliminate(M)
    pts = [tile_point(dec, t, Fraction(i, 2))
           for i, t in enumerate(fx.example61_tiles())]
    plan = solve_plan(pts, 4, 9, sigma=Fraction(13, 36))
    weight = TilePlanWeight(M, dec, plan, mode="auto", restarts=4)
    tau = float(plan.tau)
    worst = 0.0
    for k in range(BUILD_DRAWS):
        omega = sample_omega(BUILD_SEED_BASE + k, SCALE_MAX, 9)
        est = estimate_integral(M, weight, tau, BOX, omega,
                                seed=BUILD_SEED_BASE + k, n_samples=N_SAMPLES)
        worst = max(worst, est.value)
        if k % 50 == 0:
            print(f"draw {k}: running max {worst:.4f}")
    if args.check:
        return check(worst, weight.constant)
    out = {
        "cap": MARGIN * worst,
        "build_max": worst,
        "margin": MARGIN,
        "weight_constant": weight.constant,
        "tau": {"num": plan.tau.numerator, "den": plan.tau.denominator},
        "scale_max": SCALE_MAX,
        "n_samples": N_SAMPLES,
        "box": [list(b) for b in BOX],
        "build_seed_base": BUILD_SEED_BASE,
        "build_draws": BUILD_DRAWS,
    }
    with open(FIXTURE, "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=2)
    print("cap:", out["cap"])
    return 0


def check(build_max, weight_constant) -> int:
    with open(FIXTURE) as fh:
        fixture = json.load(fh)
    ok = True
    for name, got in (("build_max", build_max), ("weight_constant", weight_constant)):
        rel = abs(got - fixture[name]) / abs(fixture[name])
        ok = ok and rel <= CHECK_REL
        print(f"{name}: recomputed {got!r}, fixture {fixture[name]!r}, rel {rel:.2e}")
    print("check:", "ok" if ok else f"differs by more than {CHECK_REL:g} relative")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
