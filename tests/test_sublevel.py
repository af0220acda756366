import gc
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction as F

import numpy as np
import pytest

import mc_reference
from semistab import fixtures as fx
from semistab import sublevel
from semistab.blockdecomp import eliminate, tile_map, useful_tiles
from semistab.gitnorm import git_norm
from semistab.lp import exact_det
from semistab.polycore import Poly, PolyMatrix
from semistab.sublevel import (
    OmegaBasis,
    TilePlanWeight,
    estimate_integral,
    plucker_evaluator,
    sample_omega,
)
from semistab.tileplan import solve_plan, tile_point

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXDIR = os.path.join(ROOT, "fixtures")


# -- wedge norms -------------------------------------------------------------------


def wedge_norm(rows, omega) -> float:
    """The Plücker norm of the constant row family ``rows`` in the basis omega."""
    M = PolyMatrix([[Poly.constant(1, float(x)) for x in row] for row in rows])
    return float(plucker_evaluator(M, omega)(np.zeros((1, 1)))[0])


def test_wedge_norm_line():
    for t in (-2.0, 0.0, 3.5):
        rows = np.array([[1.0, t]])
        assert wedge_norm(rows, np.eye(2)) == pytest.approx(math.hypot(1, t))


def test_wedge_norm_single_pairing():
    om = fx.anisotropic_omega(5.0)
    assert wedge_norm(np.array([[1.0, 0.0]]), om) == pytest.approx(5.0)


def test_wedge_norm_square_case():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    om, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    got = wedge_norm(A, om)
    assert got == pytest.approx(abs(np.linalg.det(A @ om)), rel=1e-12)


def _minor_sum_oracle(G):
    """Explicit sum over increasing column tuples of squared maximal minors."""
    p, q = G.shape
    total = 0.0
    for cols in itertools.combinations(range(q), p):
        total += np.linalg.det(G[:, cols]) ** 2
    return total


def test_wedge_norm_matches_minor_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(p, 8))
        G = rng.normal(size=(p, q))
        assert wedge_norm(G, np.eye(q)) ** 2 == pytest.approx(
            _minor_sum_oracle(G), rel=1e-10)


def test_minor_sum_identity_against_singular_values():
    # ordered-tuple sum of squared minors = (p!/p^p) (p (prod sigma^2)^(1/p))^p
    rng = np.random.default_rng(9)
    for _ in range(1000):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(p, 8))
        M = rng.normal(size=(p, q))
        sv = np.linalg.svd(M, compute_uv=False)
        lhs = math.factorial(p) * _minor_sum_oracle(M)  # ordered tuples
        prod_sq = float(np.prod(sv ** 2))
        rhs = (math.factorial(p) / p ** p) * (p * prod_sq ** (1.0 / p)) ** p
        assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1e-12)


def test_wedge_norm_right_orthogonal_invariance():
    rng = np.random.default_rng(14)
    for _ in range(50):
        G = rng.normal(size=(3, 6))
        O, r = np.linalg.qr(rng.normal(size=(6, 6)))
        base = wedge_norm(G, np.eye(6))
        rot = wedge_norm(G, O)
        assert abs(rot - base) <= 1e-9 * base


# -- omega sampling -----------------------------------------------------------------


def test_sample_omega_orthogonal_at_zero_scale():
    om = sample_omega(3, 0.0, 5)
    U = om.columns
    assert np.allclose(U @ U.T, np.eye(5), atol=1e-10)
    assert abs(abs(np.linalg.det(U)) - 1) < 1e-10


def test_sample_omega_deterministic():
    a = sample_omega(11, 4.0, 4)
    b = sample_omega(11, 4.0, 4)
    assert np.array_equal(a.columns, b.columns)
    c = sample_omega(12, 4.0, 4)
    assert not np.array_equal(a.columns, c.columns)


def test_sample_omega_achieves_large_condition_numbers():
    # at scale 8 on R^9 at least half the draws are e^8-ill-conditioned
    hits = 0
    n = 200
    for k in range(n):
        om = sample_omega(k, 8.0, 9)
        sv = np.linalg.svd(om.columns, compute_uv=False)
        if sv[0] / sv[-1] >= math.exp(8.0):
            hits += 1
    assert hits >= n // 2


# -- the estimator -----------------------------------------------------------------------


def test_estimator_deterministic():
    line = fx.line_family()
    om = fx.anisotropic_omega(1.0)
    a = estimate_integral(line, 1.0, 2, [(-100, 100)], om, seed=5, n_samples=20000)
    b = estimate_integral(line, 1.0, 2, [(-100, 100)], om, seed=5, n_samples=20000)
    assert a.value == b.value and a.std_error == b.std_error
    c = estimate_integral(line, 1.0, 2, [(-100, 100)], om, seed=6, n_samples=20000)
    assert a.value != c.value


def test_estimator_closed_form_isotropic():
    # int dt / (1 + t^2) = 2 atan(L) ~= pi
    line = fx.line_family()
    om = fx.anisotropic_omega(1.0)
    est = estimate_integral(line, 1.0, 2, [(-1000, 1000)], om, seed=1,
                            n_samples=100_000)
    assert est.value == pytest.approx(math.pi, rel=0.05)
    assert est.flagged == 0


def test_estimator_anisotropic_within_ten_percent_of_pi():
    # ||(1, t)||^2 = c^2 + t^2 / c^2, so the integral is 2 atan(1000 / c^2)
    line = fx.line_family()
    for c in (0.1, 1.0, 10.0):
        om = fx.anisotropic_omega(c)
        est = estimate_integral(line, 1.0, 2, [(-1000, 1000)], om, seed=123,
                                n_samples=100_000, stratified=True,
                                budget_factor=64)
        assert abs(est.value - math.pi) <= 0.10 * math.pi
        exact = 2 * math.atan(1000 / c ** 2)
        assert abs(est.value - exact) <= 1e-12 * exact


def test_estimator_domain_monotonicity():
    line = fx.line_family()
    om = fx.anisotropic_omega(1.0)
    prev = None
    for L in (10.0, 100.0, 1000.0):
        est = estimate_integral(line, 1.0, 2, [(-L, L)], om, seed=2,
                                n_samples=50_000)
        if prev is not None:
            assert est.value >= prev.value - 3 * (est.std_error + prev.std_error)
        prev = est


def test_estimator_flags_singular_samples():
    # zero rows with positive weight: the norm vanishes everywhere
    M = PolyMatrix([[Poly.zero(1), Poly.zero(1)]])
    om = fx.anisotropic_omega(1.0)
    est = estimate_integral(M, 1.0, 2, [(0, 1)], om, seed=0, n_samples=1000)
    assert est.flagged == 1000
    assert est.value == 0.0


def _exact_value(P: Poly, t) -> F:
    return sum((c * math.prod(x ** a for x, a in zip(t, alpha))
                for alpha, c in P.terms.items()), F(0))


def test_plucker_norm_exact_where_the_gram_path_flags():
    # basis 13300198 (largest log-scale 7.9): the Gram path's det(G G^T)
    # cancels to 0 at some of the 20,000 sample points of its estimate.
    # There the norm matches the exact one, sqrt of the sum of squared
    # maximal minors of M(t) omega, with t and omega read as exact binary
    # rationals, and the estimate flags no sample
    with open(os.path.join(FIXDIR, "sublevel61_cap.json")) as fh:
        cap = json.load(fh)
    seed, n = 13_300_198, cap["n_samples"]
    M = fx.example61_matrix()
    omega = sample_omega(seed, cap["scale_max"], 9)
    box = tuple((float(lo), float(hi)) for lo, hi in cap["box"])
    pts = np.concatenate([sublevel._sample_box(sublevel._philox_stream(seed, c + 1), box,
                                               min(sublevel.CHUNK, n - start))
                          for c, start in enumerate(range(0, n, sublevel.CHUNK))])
    flagged = pts[mc_reference.gram_evaluator(M, omega)(pts) == 0.0]
    assert len(flagged) > 0
    got = plucker_evaluator(M, omega)(flagged)
    Om = [[F(x) for x in row] for row in omega.columns]
    for t, norm in zip(flagged, got):
        Mt = [[_exact_value(e, [F(x) for x in t]) for e in row] for row in M.entries]
        G = [[sum(a * b for a, b in zip(row, col)) for col in zip(*Om)] for row in Mt]
        exact = math.sqrt(sum(exact_det([[row[c] for c in S] for row in G]) ** 2
                              for S in itertools.combinations(range(9), 4)))
        assert abs(norm - exact) <= 1e-12 * exact
    tau = cap["tau"]["num"] / cap["tau"]["den"]
    est = estimate_integral(M, cap["weight_constant"], tau, box, omega, seed=seed,
                            n_samples=n)
    assert est.flagged == 0


def _m61_evaluator():
    return plucker_evaluator(fx.example61_matrix(), sample_omega(880_100, 8.0, 9))


def test_evaluator_blocks_and_buffers_do_not_change_the_norms():
    # one call over several blocks, blockwise calls of fresh evaluators, and
    # a short call after a long one (stale buffer columns) agree bit for bit
    pts = np.random.default_rng(5).uniform(-50, 50, size=(2 * sublevel.BLOCK + 17, 2))
    evaluate = _m61_evaluator()
    whole = evaluate(pts)
    parts = [_m61_evaluator()(pts[i:i + sublevel.BLOCK])
             for i in range(0, len(pts), sublevel.BLOCK)]
    assert np.array_equal(whole, np.concatenate(parts))
    assert np.array_equal(evaluate(pts[:5]), whole[:5])


def test_evaluating_a_block_allocates_less_than_its_monomial_table():
    # the monomial table and the GEMM output live in the evaluator's buffer
    # (28 x 1,024 floats each on m61, 224 KiB)
    evaluate = _m61_evaluator()
    pts = np.random.default_rng(6).uniform(-50, 50, size=(sublevel.BLOCK, 2))
    evaluate(pts)
    tracemalloc.start()
    try:
        evaluate(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_a_dropped_evaluator_is_freed_without_the_collector():
    # a closure in a reference cycle would keep its buffer until gc runs
    gc.disable()
    try:
        alive = weakref.ref(_m61_evaluator())
        assert alive() is None
    finally:
        gc.enable()


def test_build_sublevel_cap_check():
    # the cap fixture's build_max and weight constant, recomputed from 400
    # bases, agree with the fixture to the tool's CHECK_REL
    proc = subprocess.run([sys.executable, "tools/build_sublevel_cap.py", "--check"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _cap_problem():
    with open(os.path.join(FIXDIR, "sublevel61_cap.json")) as fh:
        cap = json.load(fh)
    return (fx.example61_matrix(), cap["weight_constant"], cap["tau"]["num"] / cap["tau"]["den"],
            [tuple(b) for b in cap["box"]])


def test_cubature_value_on_the_basis_above_the_cap():
    # the basis whose Monte-Carlo estimate is above the cap; the rule pairs
    # of orders (6, 10), (8, 12) and (10, 16) agree on it to 4e-15
    M, weight, tau, box = _cap_problem()
    est = estimate_integral(M, weight, tau, box, sample_omega(10_700_159, 8.0, 9),
                            stratified=True)
    assert est.value == pytest.approx(19.73501636, rel=1e-9)
    assert est.std_error <= sublevel.CUBATURE_REL_TOL * est.value
    assert est.flagged == 0


def test_cubature_ignores_the_seed():
    line, om = fx.line_family(), fx.anisotropic_omega(10.0)
    a, b = (estimate_integral(line, 1.0, 1, [(-1e5, 1e5)], om, seed=s, stratified=True)
            for s in (1, 2))
    assert (a.value, a.std_error, a.samples, a.flagged) == \
        (b.value, b.std_error, b.samples, b.flagged)


def test_cubature_out_of_budget_reports_its_error_estimate():
    M, weight, tau, box = _cap_problem()
    n_samples, per_cell = 1000, len(sublevel._rule_pair(2)[0])
    est = estimate_integral(M, weight, tau, box, sample_omega(10_700_159, 8.0, 9),
                            n_samples=n_samples, stratified=True, budget_factor=1)
    assert est.std_error > sublevel.CUBATURE_REL_TOL * est.value
    assert 0 < est.samples <= n_samples and est.samples % per_cell == 0


def test_cubature_in_three_variables():
    # u(t) = (1, t1, t2, t3) at tau = 2: int over [-1, 1]^3 of 1 / (1 + |t|^2)
    M = PolyMatrix([[Poly(3, {tuple(a): 1}) for a in
                     [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]]])
    box = [(-1.0, 1.0)] * 3
    est = estimate_integral(M, 1.0, 2, box, np.eye(4), stratified=True)
    mc = estimate_integral(M, 1.0, 2, box, np.eye(4), seed=3, n_samples=200_000)
    assert math.isfinite(est.value) and est.flagged == 0
    assert abs(est.value - mc.value) <= 3 * mc.std_error
    assert est.std_error <= sublevel.CUBATURE_REL_TOL * est.value


def test_estimator_rejects_bad_tau():
    # nan once returned 0.0 with all 2,000 samples flagged, and inf 0.0
    for tau in (0, -1, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            estimate_integral(fx.line_family(), 1.0, tau, [(-1, 1)],
                              fx.anisotropic_omega(1.0), n_samples=2_000)


def test_estimator_rejects_a_domain_that_is_not_its_box():
    # on the line family a 2-d box and a reversed interval once gave 14.70
    # and -1.57 (seed 0, 100,000 samples), and no interval an IndexError
    line, om = fx.line_family(), fx.anisotropic_omega(1.0)
    for domain in ([(-10, 10), (0, 5)], [(1, -1)], [], [(0, math.inf)]):
        with pytest.raises(ValueError, match="1 finite intervals"):
            estimate_integral(line, 1.0, 2, domain, om, n_samples=100)


def test_plucker_evaluator_rejects_omega_of_the_wrong_size():
    # a 3 x 3 basis for q = 2 once had its leading 2 x 2 block read
    with pytest.raises(ValueError, match="not 2 x 2"):
        plucker_evaluator(fx.line_family(), OmegaBasis(np.eye(3), np.zeros(3)))


def test_estimator_rejects_bad_sample_counts():
    line, om = fx.line_family(), fx.anisotropic_omega(1.0)
    for kwargs in ({"n_samples": 0}, {"n_samples": -5, "stratified": True},
                   {"budget_factor": 0, "stratified": True}):
        with pytest.raises(ValueError):
            estimate_integral(line, 1.0, 2, [(0, 1)], om, **kwargs)


# -- tile-plan weights ----------------------------------------------------------------


def _plan61():
    M = fx.example61_matrix()
    _, _, _, dec = eliminate(M)
    pts = [tile_point(dec, t, F(i, 2))
           for i, t in enumerate(fx.example61_tiles())]
    return M, dec, solve_plan(pts, 4, 9, sigma=F(13, 36))


def test_tile_plan_weight_collapses_to_constant():
    M, dec, plan = _plan61()
    w = TilePlanWeight(M, dec, plan, mode="auto", restarts=4)
    # product of the four tile values: 2, 2, 2, 4 sqrt(3) with exponents
    # theta_i / sigma
    expected = 2 ** (38 / 13) * 3 ** (1 / 13)
    assert w.constant == pytest.approx(expected, rel=1e-4)
    vals = w(np.array([[0.0, 0.0], [3.0, -4.0]]))
    assert np.allclose(vals, w.constant)


def test_tile_plan_weight_off_a_constant_evaluates_each_point():
    # M = [[1, s^2]] reduces to [1, -z^2 - 2 s z] with D = [[0, 1]]; at tile
    # sigma 1/2 the plan puts all weight on the full tile, whose map at t is
    # [1, -2 t z] with group norm 2 sqrt(t), so w(t) = (2 sqrt(t))^2 = 4 t
    M = PolyMatrix([[Poly.constant(1, 1), Poly(1, {(2,): 1})]])
    _, _, _, dec = eliminate(M)
    assert dec.D == [[0, 1]]
    tiles = useful_tiles(dec)
    plan = solve_plan([tile_point(dec, t, F(1, 2)) for t in tiles], 1, 2)
    assert (plan.theta, plan.tau) == ([0, 1, 0], 2)
    w = TilePlanWeight(M, dec, plan, mode="auto", restarts=4)
    assert w.constant is None
    got = w(np.array([[0.5], [1.0], [2.0]]))
    assert got == pytest.approx([2, 4, 8], rel=1e-9)
    direct = [git_norm(tile_map(M, dec, tiles[1], [F(t)]), F(1, 2), budget=120).value ** 2
              for t in (0.5, 1.0, 2.0)]
    assert list(got) == direct
