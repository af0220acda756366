"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints a single PASS line when its criterion holds, so a verbose
run reads as a checklist.  Runtime limits are asserted with
time.monotonic() around the relevant work.
"""

import json
import math
import os
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from semistab import fixtures as fx
from semistab.blockdecomp import (
    Tile,
    eliminate,
    reduced_matrix,
    tile_map,
    useful_tiles,
    vanishing_degrees,
    verify_block_decomposition,
)
from semistab.gitnorm import (
    feasible_sigma_interval,
    find_destabilizer,
    git_norm,
    group_value,
    minimize_diagonal,
    rescale_by_weights,
    sparse_criterion,
    criticality_residual,
    haar_orthogonal,
)
from semistab.polycore import (
    GroupElement,
    Poly,
    PolyMatrix,
    act_group,
    hs_norm,
    support_set,
)
from semistab.radon import (
    CurvatureForm,
    balanced_check,
    curvature_form,
    model_exponents,
    moment_family_type1,
    moment_family_type2,
    RadonProblem,
    semistability_verdict,
    verify_radon_decomposition,
)
from semistab.sublevel import (
    TilePlanWeight,
    estimate_integral,
    sample_omega,
)
from semistab.tileplan import solve_plan, tile_point

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _report(n, text):
    print(f"\n[criterion {n}] PASS: {text}")


def test_criterion_1_intro_degrees():
    t0 = time.monotonic()
    M, dec = fx.intro_decomposition()
    R = reduced_matrix(M, dec)
    D, zero_blocks = vanishing_degrees(R, [2, 1], [3, 1, 1])
    elapsed = time.monotonic() - t0
    assert D == [[0, 1, 1], [0, 2, 3]]
    assert not zero_blocks
    assert verify_block_decomposition(M, dec).ok
    assert elapsed < 1.0
    _report(1, f"introductory product degrees [[0,1,1],[0,2,3]] in {elapsed:.2f}s")


def test_criterion_2_pipeline_61():
    t0 = time.monotonic()
    M = fx.example61_matrix()
    A, B, R, dec = eliminate(M)
    assert R == fx.example61_reduced_display()  # exact, package convention
    listed = [(t.I, t.J) for t in fx.example61_tiles()]
    have = {(t.I, t.J) for t in useful_tiles(dec)}
    assert all(x in have for x in listed)
    origin = [F(0), F(0)]
    for i, (I, J) in enumerate(listed):
        tm = tile_map(M, dec, Tile(I, J), origin)
        sv = sparse_criterion(tm, F(i, 2))
        assert sv.applicable and sv.positive
    pts = [tile_point(dec, Tile(I, J), F(i, 2)) for i, (I, J) in enumerate(listed)]
    plan = solve_plan(pts, 4, 9, sigma=F(13, 36))
    assert plan.theta == [F(4, 9), F(4, 9), F(1, 18), F(1, 18)]
    assert plan.tau == F(9, 13)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(2, f"4x9 pipeline: display match, 4 tiles certified, "
               f"theta=(4/9,4/9,1/18,1/18), tau=9/13 in {elapsed:.2f}s")


def test_criterion_3_degenerate_example():
    t0 = time.monotonic()
    P = fx.example63_P()
    for sigma in (F(3, 16), F(5, 24)):
        sv = sparse_criterion(P, sigma)
        assert sv.applicable and sv.positive
    lo, hi = feasible_sigma_interval(support_set(P))
    assert lo <= F(3, 16) and hi >= F(5, 24)
    sub = fx.example63_degree1_subtile()
    dest = find_destabilizer(support_set(sub), 0, sigma_uniform=True)
    assert dest is not None and dest.margin > 0
    published = fx.example63_published_destabilizer_direction()
    ratios = set()
    for wi, pi in zip(dest.flat(), published):
        if pi == 0:
            assert wi == 0
        else:
            ratios.add(F(wi) / pi)
    assert len(ratios) == 1  # proportional up to one scale (and sign)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(3, f"degenerate 4x8: positive at 3/16 and 5/24, interval "
               f"[{lo},{hi}] covers published range, destabilizer direction "
               f"matches in {elapsed:.2f}s")


SPARSE_SET = [
    (fx.two_squares(), F(1)),
    (fx.diag_linear_4(), F(1, 2)),
    (fx.two_cubes(), F(3, 2)),
]


def test_criterion_4_optimizer_soundness():
    for P, sigma in SPARSE_SET:
        sv = sparse_criterion(P, sigma)
        assert sv.strictly_positive_theta
        inner = minimize_diagonal(P, sigma)
        est = git_norm(P, sigma, restarts=16, budget=80, seed=0)
        assert abs(est.value - inner.value) <= 1e-3 * inner.value
        rescaled = rescale_by_weights(P, inner.weights, sigma)
        resid = criticality_residual(rescaled, float(sigma))
        assert resid <= 1e-6 * hs_norm(rescaled) ** 2
    # homogeneous fixtures off the balance parameter drift to zero
    homogeneous = [
        (PolyMatrix([[Poly(1, {(2,): 1})]]), F(1)),        # D/d = 2
        (fx.two_squares(), F(1, 2)),                        # D/d = 1
        (fx.two_cubes(), F(1, 2)),                          # D/d = 3/2
    ]
    for P, sigma in homogeneous:
        res = minimize_diagonal(P, sigma)
        assert res.status == "drift-to-zero"
        assert res.value < 1e-6 * hs_norm(P)
        assert res.iterations <= 200
    _report(4, "sparse fixtures match the diagonal optimum within 1e-3 with "
               "criticality residual <= 1e-6; off-balance homogeneous "
               "fixtures drift to zero")


def _random_float_matrix(rng, p, q, d, deg):
    entries = []
    for _ in range(p):
        row = []
        for _ in range(q):
            terms = {}
            for _ in range(rng.integers(1, 4)):
                alpha = tuple(int(v) for v in rng.integers(0, deg + 1, size=d))
                if sum(alpha) <= deg:
                    terms[alpha] = float(rng.normal())
            row.append(Poly(d, terms, exact=False))
        entries.append(row)
    return PolyMatrix(entries)


def test_criterion_5_invariance_suites():
    rng = np.random.default_rng(2024)
    # Hilbert-Schmidt orthogonal invariance, 1000 cases at 1e-9 relative
    for _ in range(1000):
        p, q, d = (int(rng.integers(1, 5)) for _ in range(3))
        P = _random_float_matrix(rng, p, q, d, 3)
        g = GroupElement(haar_orthogonal(rng, p), haar_orthogonal(rng, q),
                         haar_orthogonal(rng, d), volume_preserving=False)
        n0, n1 = hs_norm(P), hs_norm(act_group(P, g))
        assert abs(n1 - n0) <= 1e-9 * max(n0, 1e-12)
    # minor-sum identity, 1000 random matrices up to 4 x 7 at 1e-8 relative
    import itertools

    for _ in range(1000):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(p, 8))
        M = rng.normal(size=(p, q))
        ordered = math.factorial(p) * sum(
            np.linalg.det(M[:, cols]) ** 2
            for cols in itertools.combinations(range(q), p))
        sv = np.linalg.svd(M, compute_uv=False)
        prod_sq = float(np.prod(sv ** 2))
        closed = (math.factorial(p) / p ** p) * (p * prod_sq ** (1 / p)) ** p
        assert abs(ordered - closed) <= 1e-8 * max(closed, 1e-12)
    # orbit transport of incumbent minimizers at 1e-9
    P = fx.two_squares()
    est = git_norm(P, 1, restarts=4, budget=20, seed=5)
    h = GroupElement(np.diag(np.exp(est.weights.w_p)) @ est.frames[0],
                     np.diag(np.exp(est.weights.w_q)) @ est.frames[1],
                     np.diag(np.exp(est.weights.w_d)) @ est.frames[2],
                     volume_preserving=False)
    v0 = group_value(P, h, 1)
    g = GroupElement([[F(1), F(2)], [F(0), F(1)]], [[F(1)]],
                     [[F(2), F(1)], [F(1), F(1)]], volume_preserving=False)
    Pg = act_group(P, g)
    h2 = GroupElement(np.asarray(h.A) @ np.linalg.inv(np.array(g.A, float)),
                      np.asarray(h.B) @ np.linalg.inv(np.array(g.B, float)),
                      np.asarray(h.C) @ np.linalg.inv(np.array(g.C, float)),
                      volume_preserving=False)
    v1 = group_value(Pg, h2, 1)
    assert abs(v1 - v0) <= 1e-9 * v0
    _report(5, "orthogonal invariance (1000 cases, 1e-9), minor-sum identity "
               "(1000 cases, 1e-8), orbit transport (1e-9)")


def test_criterion_6_sublevel_analytic_oracle():
    t0 = time.monotonic()
    line = fx.line_family()
    for c in (0.1, 1.0, 10.0):
        om = fx.anisotropic_omega(c)
        est = estimate_integral(line, 1.0, 2, [(-1000.0, 1000.0)], om,
                                seed=123, n_samples=100_000, stratified=True,
                                budget_factor=64)
        assert abs(est.value - math.pi) <= 0.10 * math.pi
        # ||(1, t)||^2 = c^2 + t^2 / c^2
        exact = 2 * math.atan(1000.0 / c ** 2)
        assert abs(est.value - exact) <= 1e-12 * exact
    base = estimate_integral(line, 1.0, 1, [(-1000.0, 1000.0)],
                             fx.anisotropic_omega(1.0), seed=7,
                             n_samples=100_000, stratified=True)
    grown = None
    prev = 0.0
    for k in (3, 5, 7):
        est = estimate_integral(line, 1.0, 1, [(-(10.0 ** k), 10.0 ** k)],
                                fx.anisotropic_omega(10.0), seed=7,
                                n_samples=100_000, stratified=True,
                                budget_factor=64)
        exact = 20.0 * math.asinh(10.0 ** k / 100.0)  # 2c asinh(L / c^2), c = 10
        assert abs(est.value - exact) <= 1e-12 * exact
        assert est.value > prev  # the estimate grows with the box
        prev = est.value
        grown = est
    assert grown.value > 10.0 * base.value
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(6, f"pi oracle within 10% for c in (0.1, 1, 10); tau=1 estimate "
               f"grows with the box to {grown.value / base.value:.1f}x the "
               f"isotropic value in {elapsed:.1f}s")


def test_criterion_7_sublevel_uniformity_61():
    t0 = time.monotonic()
    with open(os.path.join(FIXDIR, "sublevel61_cap.json")) as fh:
        cap_fixture = json.load(fh)
    cap = cap_fixture["cap"]
    M = fx.example61_matrix()
    _, _, _, dec = eliminate(M)
    pts = [tile_point(dec, t, F(i, 2))
           for i, t in enumerate(fx.example61_tiles())]
    plan = solve_plan(pts, 4, 9, sigma=F(13, 36))
    assert plan.tau == F(9, 13)
    weight = TilePlanWeight(M, dec, plan, mode="auto", restarts=4)
    assert weight.constant == pytest.approx(cap_fixture["weight_constant"],
                                            rel=1e-6)
    worst = 0.0
    fresh_base = 777_000  # disjoint from the build oracle's seeds
    for k in range(200):
        omega = sample_omega(fresh_base + k, cap_fixture["scale_max"], 9)
        est = estimate_integral(
            M, weight, float(plan.tau),
            [tuple(b) for b in cap_fixture["box"]], omega,
            seed=fresh_base + k, n_samples=cap_fixture["n_samples"])
        assert est.flagged == 0
        assert est.value <= cap
        worst = max(worst, est.value)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(7, f"200 fresh anisotropic bases stay below the recorded cap "
               f"{cap:.3f} (worst {worst:.3f}) in {elapsed:.1f}s")


def test_criterion_8_radon_exponents():
    me = model_exponents(3, 3, 2)
    assert (me["r2"], me["r1"]) == (F(5, 3), F(5, 3))
    rng = np.random.default_rng(77)
    found = 0
    while found < 20:
        n, n1, k = (int(rng.integers(2, 12)), int(rng.integers(2, 12)),
                    int(rng.integers(1, 8)))
        if not k < min(n, n1):
            continue
        m = model_exponents(n, n1, k)
        assert (n + k) * m["inv_p2"] + (n1 + k) * m["inv_p1"] == n + n1
        found += 1
    res = balanced_check([(2,)], 2, d=1)
    assert res.ok and res.r == F(3, 2) and res.target == 3
    M1, A1, B1, P1, _, _ = moment_family_type1([(1, 0), (0, 1)], 1)
    assert verify_radon_decomposition(M1, A1, B1, P1).ok
    M2, A2, B2, P2, _, _ = moment_family_type2([(2,)])
    assert verify_radon_decomposition(M2, A2, B2, P2).ok
    _report(8, "model exponents (5/3, 5/3), dual identity on 20 triples, "
               "parabola exponents r=3/2 -> L^3, both balanced "
               "constructions verify")


def test_criterion_9_semistability_verdicts():
    # positive: unit form and the normalized parabola curvature form
    v = semistability_verdict(CurvatureForm([[[F(1)]]]))
    assert v.state == "positive"
    phi = Poly(3, {(0, 1, 0): 1, (2, 0, 0): F(-1, 2), (1, 0, 1): 1,
                   (0, 0, 2): F(-1, 2)})
    Q = curvature_form(RadonProblem(2, 2, 1, [phi]), [0, 0, 0])
    assert semistability_verdict(Q).state == "positive"
    # unstable: the zero form ...
    vz = semistability_verdict(CurvatureForm([[[F(0)]]]))
    assert vz.state == "unstable" and vz.certificate.exact
    # ... and twenty random forms of the always-unstable (5, 2, 3) pattern
    random.seed(20240604)
    for trial in range(20):
        T = [[[F(random.randint(-9, 9)) for _ in range(3)] for _ in range(2)]
             for _ in range(5)]
        Q = CurvatureForm(T)
        v = semistability_verdict(Q, restarts=8, seed=trial)
        assert v.state == "unstable"
        cert = v.certificate
        assert cert.exact
        assert cert.reverify(Q.to_polymatrix())
    _report(9, "positive for the unit and parabola forms; unstable with "
               "exactly re-verified certificates for the zero form and "
               "20 random (5,2,3) forms")
