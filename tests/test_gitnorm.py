import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

import search_reference as ref
from semistab import fixtures as fx
from semistab.gitnorm import (
    LogWeights,
    criticality_residual,
    feasible_sigma_interval,
    find_destabilizer,
    git_norm,
    group_value,
    haar_orthogonal,
    minimize_diagonal,
    polytope_membership,
    rescale_by_weights,
    sparse_criterion,
)
from semistab.polycore import (
    FloatRangeError,
    GroupElement,
    Poly,
    PolyMatrix,
    act_group,
    hs_norm,
    support_set,
)


def two_squares():
    return fx.two_squares()


def scaled_norm(P, w, sigma):
    """|det e^(W_d)|^(-sigma) ||rho_diag(e^W) P||."""
    return hs_norm(rescale_by_weights(P, w, sigma))


# -- scaled norm -----------------------------------------------------------------


def test_scaled_norm_identity_weights():
    P = two_squares()
    w = LogWeights.zeros(2, 1, 2)
    assert scaled_norm(P, w, 1) == pytest.approx(hs_norm(P), rel=1e-14)


def test_scaled_norm_hand_computed():
    # weights (1,-1) on rows: pairings are +1 and -1, masses 2 each,
    # so the squared value is 2 e^2 + 2 e^-2
    P = two_squares()
    w = LogWeights(np.array([1.0, -1.0]), np.zeros(1), np.zeros(2))
    expected = math.sqrt(2 * math.e ** 2 + 2 * math.e ** -2)
    assert scaled_norm(P, w, 1) == pytest.approx(expected, rel=1e-12)


def test_scaled_norm_scale_invariant_point():
    P = PolyMatrix([[Poly(1, {(1,): 1})]])
    for b in (-3.0, 0.5, 7.0):
        w = LogWeights(np.zeros(1), np.zeros(1), np.array([b]))
        assert scaled_norm(P, w, 1) == pytest.approx(1.0, rel=1e-12)


def test_scaled_norm_matches_group_action():
    # |det e^{W_d}|^{-sigma} ||rho_(diag) P|| agrees with the support formula
    rng = np.random.default_rng(0)
    P = two_squares()
    for _ in range(10):
        wp = rng.normal(size=2)
        wp -= wp.mean()
        wd = rng.normal(size=2)
        w = LogWeights(wp, np.zeros(1), wd)
        sigma = 1.0
        g = GroupElement(np.diag(np.exp(wp)), np.eye(1), np.diag(np.exp(wd)),
                         volume_preserving=False)
        direct = abs(g.det_C()) ** (-sigma) * hs_norm(act_group(P, g))
        assert scaled_norm(P, w, sigma) == pytest.approx(direct, rel=1e-10)


# -- diagonal minimization ----------------------------------------------------------


def test_minimize_diagonal_critical_at_origin():
    res = minimize_diagonal(two_squares(), 1)
    assert res.status == "converged"
    assert res.value == pytest.approx(2.0, rel=1e-12)
    assert res.weights.inf_norm() <= 1e-9


def test_minimize_diagonal_drift():
    # homogeneous degree 2, d = 1, away from the balance point sigma = 2
    P = PolyMatrix([[Poly(1, {(2,): 1})]])
    res = minimize_diagonal(P, 1)
    assert res.status == "drift-to-zero"
    assert res.value < 1e-6 * hs_norm(P)
    # at the balance point the value is stationary
    res2 = minimize_diagonal(P, 2)
    assert res2.status == "converged"
    assert res2.value == pytest.approx(math.sqrt(2), rel=1e-12)


def test_minimize_diagonal_constant_identity():
    eye = PolyMatrix([[Poly.constant(1, 1), Poly.zero(1)],
                      [Poly.zero(1), Poly.constant(1, 1)]])
    res = minimize_diagonal(eye, 0)
    assert res.status == "converged"
    assert res.value == pytest.approx(math.sqrt(2), rel=1e-12)


def test_zero_matrix():
    zero = PolyMatrix([[Poly.zero(2)] * 2] * 2)
    res = minimize_diagonal(zero, 1)
    assert res.value == 0.0 and res.status == "converged"
    est = git_norm(zero, 1, restarts=2)
    assert est.value == 0.0 and est.status == "converged"


# -- the two-stage norm ---------------------------------------------------------------


def test_git_norm_constant_identity():
    # oracle: min of s1^2 + s2^2 under s1 s2 = 1 is 2, so the norm is sqrt(2)
    eye = PolyMatrix([[Poly.constant(1, 1), Poly.zero(1)],
                      [Poly.zero(1), Poly.constant(1, 1)]])
    est = git_norm(eye, 0, restarts=8, budget=60, seed=1)
    assert est.value == pytest.approx(math.sqrt(2), rel=1e-6)


def test_git_norm_two_squares():
    est = git_norm(two_squares(), 1, restarts=8, budget=60, seed=1)
    assert est.status == "converged"
    assert est.value == pytest.approx(2.0, rel=1e-9)


def test_git_norm_single_linear():
    est = git_norm(PolyMatrix([[Poly(1, {(1,): 1})]]), 1, restarts=4, budget=20)
    assert est.value == pytest.approx(1.0, rel=1e-9)


def test_git_norm_upper_bound_soundness():
    # re-evaluating the scaled norm at the reported minimizer reproduces the
    # value; any evaluated point dominates the reported minimum
    P = two_squares()
    est = git_norm(P, 1, restarts=8, budget=40, seed=3)
    Pf = act_group(P, GroupElement(*est.frames, volume_preserving=False))
    again = scaled_norm(Pf, est.weights, 1)
    assert again == pytest.approx(est.value, rel=1e-8)
    for _ in range(5):
        w = LogWeights(*(lambda v: (v[:2] - v[:2].mean(), v[2:3] * 0, v[3:5]))(
            np.random.default_rng(7).normal(size=5)))
        assert scaled_norm(Pf, w, 1) >= est.value - 1e-8


def test_git_norm_drift_on_homogeneous_imbalance():
    P = PolyMatrix([[Poly(1, {(2,): 1})]])
    est = git_norm(P, 1, restarts=2, budget=10)
    assert est.status == "drift-to-zero"
    assert est.value < 1e-6 * hs_norm(P)


# -- criticality residuals ---------------------------------------------------------


def test_criticality_zero_at_balanced_fixtures():
    assert criticality_residual(two_squares(), 1) == 0.0
    eye = PolyMatrix([[Poly.constant(1, 1), Poly.zero(1)],
                      [Poly.zero(1), Poly.constant(1, 1)]])
    assert criticality_residual(eye, 0) == 0.0
    assert criticality_residual(fx.diag_linear_4(), F(1, 2)) == 0.0
    assert criticality_residual(fx.two_cubes(), F(3, 2)) == 0.0


def test_criticality_positive_when_unbalanced():
    P = PolyMatrix([[Poly(1, {(1,): 1})], [Poly.zero(1)]])
    assert criticality_residual(P, 1) > 0.1


def random_exact_matrix(rng):
    """A seeded exact p x q matrix, p, q, d <= 3, of up to three terms of
    degree <= 3 per entry."""
    p, q, d = (int(rng.integers(1, 4)) for _ in range(3))
    D = int(rng.integers(0, 4))

    def entry():
        terms = {}
        for _ in range(int(rng.integers(0, 4))):
            a = rng.multinomial(int(rng.integers(0, D + 1)), [1 / d] * d)
            terms[tuple(map(int, a))] = F(int(rng.integers(-9, 10)),
                                          int(rng.integers(1, 7)))
        return Poly(d, terms)

    return PolyMatrix([[entry() for _ in range(q)] for _ in range(p)])


def test_exact_criticality_matches_the_float_path():
    # exact input runs the same residual matrices as float input, on Fractions
    rng = np.random.default_rng(11)
    for _ in range(200):
        P = random_exact_matrix(rng)
        sigma = F(int(rng.integers(0, 5)), int(rng.integers(1, 4)))
        Pf = PolyMatrix([[Poly(e.dim, e.terms, exact=False) for e in row]
                         for row in P.entries])
        exact = criticality_residual(P, sigma)
        flo = criticality_residual(Pf, float(sigma))
        assert abs(exact - flo) <= 1e-12 * flo


# -- membership and destabilizers -----------------------------------------------------


def test_membership_midpoint():
    P = PolyMatrix([[Poly(2, {(1, 0): 1})], [Poly(2, {(0, 1): 1})]])
    res = polytope_membership(support_set(P), F(1, 2))
    assert res.member
    assert res.theta == [F(1, 2), F(1, 2)]


def test_membership_separator():
    # single point alpha = 1 in d = 1 with sigma = 2: separated
    E = support_set(PolyMatrix([[Poly(1, {(1,): 1})]]))
    res = polytope_membership(E, 2)
    assert not res.member
    w, gap = res.separator
    assert gap > 0
    # the functional separates strictly: w . point < w . target
    pt = E.weight_points()[0]
    target = [F(1), F(1), F(2)]
    assert sum(a * b for a, b in zip(w, pt)) < sum(a * b for a, b in zip(w, target))


def test_membership_empty_support():
    from semistab.polycore import SupportSet

    res = polytope_membership(SupportSet(1, 1, 1, []), 1)
    assert not res.member and res.separator is not None


def test_destabilizer_single_bilinear_monomial():
    E = support_set(PolyMatrix([[Poly(2, {(1, 1): 1})]]))
    dest = find_destabilizer(E, 2)
    assert dest is not None
    assert dest.w_d == [F(1), F(1)]
    assert dest.margin == 2


def test_destabilizer_infeasible_at_midpoint():
    P = PolyMatrix([[Poly(2, {(1, 0): 1})], [Poly(2, {(0, 1): 1})]])
    assert find_destabilizer(support_set(P), F(1, 2)) is None


def test_destabilizer_degenerate_subtile_direction():
    """The sigma-uniform destabilizer matches the published scaling vector
    up to positive rescaling and overall sign."""
    sub = fx.example63_degree1_subtile()
    E = support_set(sub)
    dest = find_destabilizer(E, 0, sigma_uniform=True)
    assert dest is not None and dest.margin > 0
    published = fx.example63_published_destabilizer_direction()
    w = dest.flat()
    ratios = set()
    for wi, pi in zip(w, published):
        if pi == 0:
            assert wi == 0
        else:
            ratios.add(F(wi) / pi)
    assert len(ratios) == 1
    ratio = ratios.pop()
    # sign normalized so every pairing is negative
    assert dest.verify(E, F(0))
    assert ratio < 0  # negated relative to the published expansion rates


def test_destabilizer_subtile_membership_fails_everywhere():
    sub = fx.example63_degree1_subtile()
    E = support_set(sub)
    for sigma in (F(0), F(3, 16), F(1, 3), F(1)):
        assert not polytope_membership(E, sigma).member


def test_destabilizer_verifies_exactly():
    E = support_set(fx.example63_degree1_subtile())
    dest = find_destabilizer(E, F(1, 3))
    assert dest is not None
    assert dest.verify(E, F(1, 3))


# -- sparse criterion -------------------------------------------------------------------


def test_sparse_two_squares():
    sv = sparse_criterion(two_squares(), 1)
    assert sv.applicable and sv.positive and sv.strictly_positive_theta
    assert set(sv.theta.values()) == {F(1, 2)}


def test_sparse_hypothesis2_violation():
    P = PolyMatrix([[Poly(2, {(1, 0): 1, (0, 1): 1})]])  # z1 + z2 in one entry
    sv = sparse_criterion(P, F(1, 2))
    assert not sv.applicable


def test_sparse_hypothesis1_violation():
    # two entries in one row share the constant monomial
    P = PolyMatrix([[Poly.constant(1, 1), Poly.constant(1, 1)]])
    sv = sparse_criterion(P, 0)
    assert not sv.applicable


def test_sparse_degenerate_example_sigmas():
    P = fx.example63_P()
    for sigma in (F(3, 16), F(5, 24)):
        sv = sparse_criterion(P, sigma)
        assert sv.applicable and sv.positive
        # exact reconstruction of the balanced barycenter
        E = support_set(P)
        pts = dict(zip(E.triples, E.weight_points()))
        target = [F(1, 4)] * 4 + [F(1, 8)] * 8 + [sigma] * 3
        comb = [sum(t * pts[tr][c] for tr, t in sv.theta.items())
                for c in range(15)]
        assert comb == target


def test_feasible_sigma_interval_contains_published_range():
    interval = feasible_sigma_interval(support_set(fx.example63_P()))
    lo, hi = interval
    assert lo <= F(3, 16) and hi >= F(5, 24)


def test_feasible_sigma_interval_lp_rows(monkeypatch):
    # theta (n) | sigma: the coordinate rows of the support points, the
    # variable rows with sigma moved left, then sum theta = 1
    import semistab.gitnorm as gn

    seen, solve = [], gn.solve_eq_lp

    def spy(A, b, *args, **kwargs):
        seen.append((A, b))
        return solve(A, b, *args, **kwargs)

    monkeypatch.setattr(gn, "solve_eq_lp", spy)
    E = support_set(fx.example63_P())
    feasible_sigma_interval(E)
    pts, n, pq = E.weight_points(), len(E.triples), E.p + E.q
    rows = [[pt[c] for pt in pts] + [F(-1) if c >= pq else F(0)]
            for c in range(pq + E.d)] + [[F(1)] * n + [F(0)]]
    rhs = [F(1, E.p)] * E.p + [F(1, E.q)] * E.q + [F(0)] * E.d + [F(1)]
    assert seen == [(rows, rhs)] * 2


# -- interplay invariants ---------------------------------------------------------------


SPARSE_FIXTURES = [
    (fx.two_squares(), F(1)),
    (fx.diag_linear_4(), F(1, 2)),
    (fx.two_cubes(), F(3, 2)),
]


@pytest.mark.parametrize("P,sigma", SPARSE_FIXTURES)
def test_sparse_positive_attained_diagonally(P, sigma):
    sv = sparse_criterion(P, sigma)
    assert sv.strictly_positive_theta
    inner = minimize_diagonal(P, sigma)
    est = git_norm(P, sigma, restarts=16, budget=60, seed=0)
    assert est.value >= (1 - 1e-3) * inner.value
    assert est.value <= inner.value * (1 + 1e-9)
    from semistab.gitnorm import rescale_by_weights

    rescaled = rescale_by_weights(P, inner.weights, sigma)
    resid = criticality_residual(rescaled, float(sigma))
    assert resid <= 1e-6 * hs_norm(rescaled) ** 2


@pytest.mark.parametrize("P,sigma", SPARSE_FIXTURES)
def test_membership_necessity_under_random_frames(P, sigma):
    rng = np.random.default_rng(123)
    assert polytope_membership(support_set(P), sigma).member
    for _ in range(100):
        g = GroupElement(haar_orthogonal(rng, P.p), haar_orthogonal(rng, P.q),
                         haar_orthogonal(rng, P.d), volume_preserving=False)
        E = support_set(act_group(P, g))
        assert polytope_membership(E, sigma).member


UNSTABLE_5_2_3 = {
    "seeded": [[[F(int(v)) for v in row] for row in plane]
               for plane in np.random.default_rng(7).integers(-9, 10, (5, 2, 3))],
    "equal_slices": [[[F(1) if l == i % 3 else F(0) for l in range(3)]
                      for _ in range(2)] for i in range(5)],
    "rank_one": [[[F(1)] * 3 for _ in range(2)] for _ in range(5)],
}


@pytest.mark.parametrize("name", sorted(UNSTABLE_5_2_3))
def test_random_frames_cannot_expose_instability(name):
    # every (5,2,3) form is unstable at sigma = 1/3, yet a Haar frame gives a
    # nonzero z-linear form full support (with probability one), and uniform
    # weights on the full support sit at the barycenter (1/p; 1/q; 1/d):
    # a random frame never yields a destabilizer
    from semistab.radon import CurvatureForm

    P = CurvatureForm(UNSTABLE_5_2_3[name]).to_polymatrix()
    sigma = F(1, 3)
    rng = np.random.default_rng(123)
    for _ in range(100):
        g = GroupElement(haar_orthogonal(rng, P.p), haar_orthogonal(rng, P.q),
                         haar_orthogonal(rng, P.d), volume_preserving=False)
        E = support_set(act_group(P, g))
        assert len(E) == P.p * P.q * P.d
        assert polytope_membership(E, sigma).member


def test_orbit_transport_invariance():
    # transporting the incumbent through a volume-one rational element gives
    # a feasible point with the same objective
    P = two_squares()
    sigma = 1.0
    est = git_norm(P, sigma, restarts=4, budget=20, seed=2)
    O1, O2, O3 = est.frames
    h = GroupElement(np.diag(np.exp(est.weights.w_p)) @ O1,
                     np.diag(np.exp(est.weights.w_q)) @ O2,
                     np.diag(np.exp(est.weights.w_d)) @ O3,
                     volume_preserving=False)
    v0 = group_value(P, h, sigma)
    assert v0 == pytest.approx(est.value, rel=1e-9)
    g = GroupElement([[F(1), F(1)], [F(0), F(1)]], [[F(1)]],
                     [[F(0), F(1)], [F(-1), F(2)]], volume_preserving=False)
    Pg = act_group(P, g)
    ginv = GroupElement(np.linalg.inv(np.array(g.A, dtype=float)),
                        np.linalg.inv(np.array(g.B, dtype=float)),
                        np.linalg.inv(np.array(g.C, dtype=float)),
                        volume_preserving=False)
    h2 = GroupElement(np.asarray(h.A) @ np.asarray(ginv.A),
                      np.asarray(h.B) @ np.asarray(ginv.B),
                      np.asarray(h.C) @ np.asarray(ginv.C),
                      volume_preserving=False)
    v1 = group_value(Pg, h2, sigma)
    assert v1 == pytest.approx(v0, rel=1e-9)


def test_continuity_under_perturbation():
    P = two_squares()
    base = minimize_diagonal(P, 1).value
    Pp = PolyMatrix([[Poly(2, {(2, 0): 1 + 1e-6})],
                     [Poly(2, {(0, 2): 1 - 1e-6})]])
    pert = minimize_diagonal(Pp, 1).value
    assert abs(pert - base) <= 1e-3 * base


# -- the 4x8 fixture ---------------------------------------------------------------


P63_REFERENCE_3_16 = 3.6529141338528466  # minimize_diagonal(p63, 3/16).value


@pytest.mark.parametrize("seed", [0, 5])
def test_git_norm_p63_sigma_3_16_converges(seed):
    # the inner solve ends with sum(w_d) = -56.6, so the polish starts at
    # det C ~ e^-56.6; the singularity test must not depend on that scale
    P = fx.example63_P()
    assert minimize_diagonal(P, F(3, 16)).value == pytest.approx(
        P63_REFERENCE_3_16, rel=1e-12)
    est = git_norm(P, F(3, 16), seed=seed)
    assert est.status == "converged"
    assert est.value == pytest.approx(P63_REFERENCE_3_16, rel=1e-9)


@pytest.mark.parametrize("sigma", [F(1, 5), F(3, 16), F(5, 24)])
def test_git_norm_p63_reaches_diagonal_optimum_deterministically(sigma):
    # the sparse criterion holds at these sigmas, so the identity-frame
    # diagonal optimum is the infimum
    P = fx.example63_P()
    target = minimize_diagonal(P, sigma).value
    first = git_norm(P, sigma, restarts=4, seed=11)
    assert first.status == "converged"
    assert abs(first.value - target) <= 1e-6 * target
    again = git_norm(fx.example63_P(), sigma, restarts=4, seed=11)
    assert json.dumps(first.to_json()) == json.dumps(again.to_json())


# -- the deterministic critical-point search ----------------------------------------

FOC_TARGET = 1e-9  # converged means residual <= this * value^2


def scale_form(k, exact=True):
    """x^2 + 10^-k y^2, whose infimum at sigma = 1 is 2 * 10^(-k/2)."""
    small = F(1, 10 ** k) if exact else 10.0 ** -k
    return PolyMatrix([[Poly(2, {(2, 0): 1, (0, 2): small}, exact=exact)]])


def test_git_norm_is_scale_free():
    # z -> (e^a z0, e^-a z1) balances the two terms; neither the pruning of
    # the action or of a float Poly nor the stopping and drift tests may
    # depend on 10^-k
    for k in range(31):
        for exact in (True, False):
            est = git_norm(scale_form(k, exact), 1)
            expect = 2 * 10 ** (-k / 2)
            assert est.status == "converged", (k, exact)
            assert abs(est.value - expect) <= 1e-6 * expect, (k, exact)
            assert est.foc_residual <= FOC_TARGET * est.value ** 2, (k, exact)


@pytest.mark.parametrize("search", [git_norm, minimize_diagonal])
@pytest.mark.parametrize("k,exact", [(200, True), (200, False), (330, True)])
def test_masses_no_power_of_two_brings_into_range_raise(search, k, exact):
    # x^2 + 10^-200 y^2: the mass 2e-400 is not a normal float at any scale
    # that keeps the mass 2 finite.  git_norm once searched without it and
    # stopped budget-exhausted at 1.05e-154, below the infimum 2e-100, after
    # about 1,000 RuntimeWarnings.  10^-330 is 0.0 as a float: its mass is
    # lost before any rescale, and the search of x^2 alone drifted to zero,
    # below the infimum 2e-165
    with pytest.raises(FloatRangeError):
        search(scale_form(k, exact), 1)


def float_form_523(seed):
    """A seeded z-linear float (5,2,3) form: unstable at sigma = 1/3."""
    T = np.random.default_rng(seed).standard_normal((5, 2, 3))
    lin = [tuple(int(k == l) for k in range(3)) for l in range(3)]
    return PolyMatrix([[Poly(3, {lin[l]: T[i, j, l] for l in range(3)}, exact=False)
                         for j in range(2)] for i in range(5)])


def float_quadratic_222(seed):
    """A seeded 2 x 2 matrix of float binary quadratic forms (sigma = 1)."""
    T = np.random.default_rng(seed).standard_normal((2, 2, 3))
    mons = ((2, 0), (1, 1), (0, 2))
    return PolyMatrix([[Poly(2, dict(zip(mons, T[i, j])), exact=False)
                        for j in range(2)] for i in range(2)])


FLOAT_FORMS = ([pytest.param(float_form_523(s), F(1, 3), False, id=f"523-{s}")
                for s in range(4)]
               + [pytest.param(float_quadratic_222(s), F(1), True, id=f"222-{s}")
                  for s in range(4)])


@pytest.mark.parametrize("P,sigma,semistable", FLOAT_FORMS)
def test_git_norm_float_forms_never_raise_or_overstate(P, sigma, semistable):
    # a numerically singular C on the search path is drift evidence, never an
    # exception; "converged" always comes with the residual it promises
    est = git_norm(P, sigma)
    assert est.status in ("converged", "drift-to-zero", "budget-exhausted")
    if est.status == "converged":
        assert est.foc_residual <= FOC_TARGET * est.value ** 2
        g = GroupElement(*est.frames, volume_preserving=False)
        again = scaled_norm(act_group(P, g), est.weights, sigma)
        assert again == pytest.approx(est.value, rel=1e-9)
    if semistable:
        assert est.status == "converged"
    else:
        # every (5,2,3) form is unstable at 1/3: no critical point exists
        assert est.status == "drift-to-zero"


ORACLE_CASES = ([pytest.param(fx.example63_P(), s, True, id=f"p63-{s}")
                 for s in (F(1, 5), F(3, 16), F(5, 24))]
                + [pytest.param(float_form_523(s), F(1, 3), False, id=f"523-{s}")
                   for s in range(2)]
                + [pytest.param(float_quadratic_222(s), F(1), True, id=f"222-{s}")
                   for s in range(2)])


@pytest.mark.parametrize("P,sigma,semistable", ORACLE_CASES)
def test_search_no_worse_than_randomized_reference(P, sigma, semistable):
    new = git_norm(P, sigma)
    old = ref.git_norm(P, sigma, restarts=8, seed=0)
    # both values are upper bounds on the infimum; on a semistable input the
    # certified critical point is the infimum
    assert new.value <= old.value * (1 + 1e-9)
    if semistable:
        assert new.status == "converged"
        assert new.evaluations <= 3 < old.evaluations
