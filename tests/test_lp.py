import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

import lp_reference
from semistab import gitnorm, lp, radon
from semistab.gitnorm import Destabilizer, find_destabilizer, polytope_membership
from semistab.lp import CertificateError, LPResult, feasible_point, solve_eq_lp
from semistab.polycore import Poly, PolyMatrix, SupportSet, support_set


def test_simple_feasible():
    # x1 + x2 = 1, x1 - x2 = 0 -> (1/2, 1/2)
    res = feasible_point([[1, 1], [1, -1]], [1, 0])
    assert res.status == "optimal"
    assert res.x == [F(1, 2), F(1, 2)]


def test_optimization():
    # max x1 + 2 x2 s.t. x1 + x2 + s = 4, x2 + t = 3
    res = solve_eq_lp([[1, 1, 1, 0], [0, 1, 0, 1]], [4, 3],
                      [1, 2, 0, 0], maximize=True)
    assert res.status == "optimal"
    assert res.objective == 7
    assert res.x[0] == 1 and res.x[1] == 3


def test_infeasible_farkas():
    # x1 + x2 = -1 with x >= 0 is infeasible
    res = feasible_point([[1, 1]], [-1])
    assert res.status == "infeasible"
    y = res.farkas
    assert y[0] * 1 <= 0 and y[0] * (-1) > 0


def test_farkas_certificate_general():
    rng = np.random.default_rng(3)
    seen_infeasible = 0
    for _ in range(40):
        m, n = 3, 4
        A = [[F(int(rng.integers(-4, 5))) for _ in range(n)] for _ in range(m)]
        b = [F(int(rng.integers(-4, 5))) for _ in range(m)]
        res = feasible_point(A, b)
        if res.status == "optimal":
            for i in range(m):
                assert sum(A[i][j] * res.x[j] for j in range(n)) == b[i]
            assert all(x >= 0 for x in res.x)
        else:
            seen_infeasible += 1
            y = res.farkas
            yb = sum(y[i] * b[i] for i in range(m))
            assert yb > 0
            for j in range(n):
                assert sum(y[i] * A[i][j] for i in range(m)) <= 0
    assert seen_infeasible > 0


def test_unbounded():
    res = solve_eq_lp([[1, -1]], [0], [-1, 0], maximize=False)
    assert res.status == "unbounded"


def _grid_feasible(points, target, denom=24):
    """Brute-force oracle: is target a convex combination of the points with
    weights k/denom?  Exhaustive over compositions with pruning."""
    n = len(points)
    dim = len(target)
    tgt = [denom * t for t in target]

    def rec(idx, remaining, acc):
        if idx == n - 1:
            final = [a + remaining * p for a, p in zip(acc, points[n - 1])]
            return all(f == t for f, t in zip(final, tgt))
        # prune: remaining mass can't fix a coordinate overshoot for
        # nonnegative point coordinates
        for k in range(remaining + 1):
            nxt = [a + k * p for a, p in zip(acc, points[idx])]
            if rec(idx + 1, remaining - k, nxt):
                return True
        return False

    return rec(0, denom, [F(0)] * dim)


def test_membership_agrees_with_grid_enumeration():
    """LP feasibility versus a rational-grid search on small instances."""
    rng = np.random.default_rng(7)
    checked_member = checked_non = 0
    for trial in range(12):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        nE = int(rng.integers(2, 6))
        triples = []
        for _ in range(nE):
            i = int(rng.integers(0, p))
            j = int(rng.integers(0, q))
            alpha = tuple(int(v) for v in rng.integers(0, 3, size=d))
            if (i, j, alpha) not in triples:
                triples.append((i, j, alpha))
        E = SupportSet(p, q, d, triples)
        sigma = F(int(rng.integers(0, 3)), int(rng.integers(1, 4)))
        res = polytope_membership(E, sigma)
        target = [F(1, p)] * p + [F(1, q)] * q + [sigma] * d
        if res.member:
            # exact reconstruction check
            pts = E.weight_points()
            comb = [sum(t * pt[c] for t, pt in zip(res.theta, pts))
                    for c in range(p + q + d)]
            assert comb == target
            assert sum(res.theta) == 1
            checked_member += 1
        else:
            assert not _grid_feasible(E.weight_points(), target)
            checked_non += 1
    assert checked_non > 0


def test_grid_agrees_when_lp_vertex_is_coarse():
    """When the LP finds a member with denominator dividing 24, the grid
    oracle must agree."""
    rng = np.random.default_rng(19)
    agreements = 0
    for trial in range(20):
        p, q, d = 2, 2, 2
        nE = int(rng.integers(2, 7))
        triples = []
        for _ in range(nE):
            i = int(rng.integers(0, p))
            j = int(rng.integers(0, q))
            alpha = tuple(int(v) for v in rng.integers(0, 3, size=d))
            if (i, j, alpha) not in triples:
                triples.append((i, j, alpha))
        E = SupportSet(p, q, d, triples)
        sigma = F(1, 2)
        res = polytope_membership(E, sigma)
        if res.member and all(t.denominator <= 24 and 24 % t.denominator == 0
                              for t in res.theta):
            target = [F(1, p)] * p + [F(1, q)] * q + [sigma] * d
            assert _grid_feasible(E.weight_points(), target)
            agreements += 1
    assert agreements > 0


# -- the integer kernel against the Fraction reference ----------------------------


def _fields(res):
    return res.status, res.x, res.objective, res.farkas


def _entry(rng):
    u = rng.random()
    if u < 0.3:
        return F(0)
    if u < 0.65:
        return F(rng.randint(-5, 5))
    if u < 0.9:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))


def _oracle_corpus(count, seed):
    """Small LPs: mixed-sign b, fractional and large entries, repeated and
    zero rows, zero right-hand sides, both objective senses."""
    rng = random.Random(seed)
    for k in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        A = [[_entry(rng) for _ in range(n)] for _ in range(m)]
        b = [_entry(rng) for _ in range(m)]
        if m > 1 and k % 3 == 0:
            i, j = rng.sample(range(m), 2)
            # k odd: row j a multiple of row i; k even: row j zero, b_j = 0
            t = F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)) * (k % 2)
            A[j], b[j] = [t * v for v in A[i]], t * b[i]
        if k % 5 == 0:
            b = [F(0)] * m
        c = [_entry(rng) for _ in range(n)]
        yield A, b, c, k % 4 < 2


def test_integer_kernel_matches_fraction_reference():
    seen = Counter()
    for A, b, c, maximize in _oracle_corpus(360, seed=2407):
        got = solve_eq_lp(A, b, c, maximize=maximize)
        want = lp_reference.solve_eq_lp(A, b, c, maximize=maximize)
        assert _fields(got) == _fields(want)
        seen[got.status] += 1
    assert min(seen[s] for s in ("optimal", "infeasible", "unbounded")) >= 30


def test_phase_one_runs_once_without_artificial_columns(monkeypatch):
    """One ``_simplex_core`` call per phase, and no tableau row ever holds a
    key n..n+m-1 of an artificial column."""
    calls = []

    def core(T, d, basis, D, n, face=False, orig=lp._simplex_core):
        assert not any(n <= k < n + len(basis) for row in T for k in row)
        calls.append(face)
        return orig(T, d, basis, D, n, face)

    monkeypatch.setattr(lp, "_simplex_core", core)
    assert feasible_point([[1, 1]], [-1]).status == "infeasible"
    assert calls == [False]
    calls.clear()
    A, b, c = [[1, 1, 1, 0], [1, 0, 0, 1]], [2, F(3, 2)], [1, 1, 0, 0]
    assert solve_eq_lp(A, b, c, maximize=True, c2=[1, 0, 0, 0]).status == "optimal"
    assert calls == [False, False, True]
    for A, b, c, maximize in _oracle_corpus(360, seed=2407):
        solve_eq_lp(A, b, c, maximize=maximize)


def _reference_lexicographic(A, b, c, maximize, c2):
    """The two-LP pipeline: optimize c, then minimize c2 from scratch with
    c.x pinned to its optimum."""
    first = lp_reference.solve_eq_lp(A, b, c, maximize=maximize)
    if c2 is None or first.status != "optimal":
        return first
    second = lp_reference.solve_eq_lp(A + [list(c)], list(b) + [first.objective], c2)
    if second.status != "optimal":
        return second
    return LPResult("optimal", x=second.x, objective=first.objective)


def test_integer_kernel_matches_reference_on_support_lps(monkeypatch):
    """Membership and destabilizer LPs of random supports, both kernels."""
    seen = Counter()

    def both(A, b, c, maximize=False, c2=None):
        got = solve_eq_lp(A, b, c, maximize=maximize, c2=c2)
        assert _fields(got) == _fields(
            _reference_lexicographic(A, b, c, maximize, c2))
        seen[got.status, c2 is not None] += 1
        return got

    monkeypatch.setattr(gitnorm, "solve_eq_lp", both)
    monkeypatch.setattr(gitnorm, "feasible_point",
                        lambda A, b: both(A, b, [0] * len(A[0])))
    rng = random.Random(11)
    for _ in range(8):
        p, q, d = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        triples = sorted({(rng.randrange(p), rng.randrange(q),
                           tuple(rng.randint(0, 2) for _ in range(d)))
                          for _ in range(rng.randint(1, 5))})
        E = SupportSet(p, q, d, triples)
        sigma = F(rng.randint(0, 3), rng.randint(1, 3))
        polytope_membership(E, sigma)
        find_destabilizer(E, sigma)
    assert seen["optimal", False] > 0 and seen["infeasible", False] > 0
    assert seen["optimal", True] == 8


def test_integer_kernel_matches_reference_at_certify_size(monkeypatch):
    """Destabilizer LPs on castling-frame supports of seeded (5,2,3) forms:
    28 x 47 tableaux and 56 pivots each, where most rows have a zero
    in the entering column and are brought up to date only when next read.
    Pivots and rescales are counted only while ``solve_eq_lp`` runs: the
    frame search around the LPs pivots through the same ``_pivot`` in
    Gauss-Jordan elimination."""
    shapes, pivots, rescales, in_lp = [], Counter(), Counter(), [False]

    def both(A, b, c, maximize=False, c2=None):
        in_lp[0] = True
        try:
            got = solve_eq_lp(A, b, c, maximize=maximize, c2=c2)
        finally:
            in_lp[0] = False
        assert _fields(got) == _fields(
            _reference_lexicographic(A, b, c, maximize, c2))
        shapes.append((len(A), len(A[0])))
        return got

    def pivot(T, d, *args, orig=lp._pivot):
        if in_lp[0]:
            pivots[len(shapes)] += 1
        return orig(T, d, *args)

    def rescale(T, d, i, D, orig=lp._rescale):
        if in_lp[0]:
            rescales[d[i] != D] += 1  # True: a stale row
        return orig(T, d, i, D)

    monkeypatch.setattr(lp, "_pivot", pivot)
    monkeypatch.setattr(lp, "_rescale", rescale)
    monkeypatch.setattr(gitnorm, "solve_eq_lp", both)
    rng = random.Random(523)
    for _ in range(3):
        T = [[[F(rng.randint(-9, 9)) for _ in range(3)] for _ in range(2)]
             for _ in range(5)]
        P = radon.CurvatureForm(T).to_polymatrix()
        assert radon.pencil_destabilizer(P, F(1, 3)) is not None
    assert shapes == [(28, 47)] * 3
    assert pivots == Counter({0: 56, 1: 56, 2: 56})
    assert rescales[True] > 0, rescales


def test_second_cost_picks_the_vertex_of_an_optimal_edge():
    # max x1 + x2 on x1 + x2 + s = 2, x1 + t = 3/2: the whole edge
    # x1 + x2 = 2, 0 <= x1 <= 3/2 is optimal, and each second cost
    # picks one of its ends
    A, b, c = [[1, 1, 1, 0], [1, 0, 0, 1]], [2, F(3, 2)], [1, 1, 0, 0]
    first = solve_eq_lp(A, b, c, maximize=True)
    assert first.objective == 2
    left = solve_eq_lp(A, b, c, maximize=True, c2=[1, 0, 0, 0])
    assert left.status == "optimal" and left.objective == 2
    assert left.x == [0, 2, 0, F(3, 2)]
    right = solve_eq_lp(A, b, c, maximize=True, c2=[0, 1, 0, 0])
    assert right.objective == 2 and right.x == [F(3, 2), F(1, 2), 0, 0]
    # minimizing the slack s stays on the face, where s = 0 everywhere
    flat = solve_eq_lp(A, b, c, maximize=True, c2=[0, 0, 1, 0])
    assert flat.x[2] == 0 and flat.objective == 2
    for c2 in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0]):
        got = solve_eq_lp(A, b, c, maximize=True, c2=c2)
        assert _fields(got) == _fields(_reference_lexicographic(A, b, c, True, c2))


def test_pivot_rejects_inexact_division():
    # rows {column: int} over their own denominators d, here both at D = 3
    T = [{0: 2, 1: 3, lp.RHS: 1}, {0: 4, 1: 1, lp.RHS: 1}]
    with pytest.raises(ArithmeticError, match="pivot"):
        lp._pivot(T, [3, 3], [0, 1], 0, 0, 3)


def test_stale_row_rescale_rejects_inexact_division():
    # row 1 sits over 2 and would need 3/2 of its entries at D = 3
    T = [{0: 2, 1: 3, lp.RHS: 1}, {0: 1, lp.RHS: 1}]
    with pytest.raises(ArithmeticError, match="rescale"):
        lp._rescale(T, [3, 2], 1, 3)
    # the pivot brings the stale row up to date before it updates it
    with pytest.raises(ArithmeticError, match="rescale"):
        lp._pivot(T, [3, 2], [0, 1], 0, 0, 3)


# -- certificate checks raise CertificateError, also under python -O ---------------


def test_bad_farkas_vector_raises(monkeypatch):
    farkas = lp._farkas_vector
    monkeypatch.setattr(lp, "_farkas_vector", lambda *a: [-v for v in farkas(*a)])
    with pytest.raises(CertificateError):
        feasible_point([[1, 1]], [-1])


def test_separator_without_gap_raises(monkeypatch):
    monkeypatch.setattr(gitnorm, "feasible_point", lambda A, b: LPResult(
        "infeasible", farkas=[F(0)] * len(b)))
    E = support_set(PolyMatrix([[Poly(1, {(1,): 1})]]))
    with pytest.raises(CertificateError):
        polytope_membership(E, 2)


def test_destabilizer_failing_verify_raises(monkeypatch):
    monkeypatch.setattr(Destabilizer, "verify", lambda self, E, sigma: False)
    E = support_set(PolyMatrix([[Poly(2, {(1, 1): 1})]]))
    with pytest.raises(CertificateError):
        find_destabilizer(E, 2)


def test_pencil_certificate_failing_reverify_raises(monkeypatch):
    monkeypatch.setattr(radon.UnstableCertificate, "reverify", lambda self, P: False)
    rnd = random.Random(55)
    T = [[[F(rnd.randint(-9, 9)) for _ in range(3)] for _ in range(2)]
         for _ in range(5)]
    with pytest.raises(CertificateError):
        radon.semistability_verdict(radon.CurvatureForm(T), restarts=0)


def test_exponent_identity_failure_raises(monkeypatch):
    monkeypatch.setattr(radon, "Fraction", lambda a, b=1: F(a, b) + F(1, 7))
    with pytest.raises(CertificateError):
        radon.model_exponents(4, 5, 2)
