import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import curvature_reference as ref
import pencil_reference as pencil_ref
from semistab import radon
from semistab.blockdecomp import has_generic_rank_p
from semistab.lp import CertificateError
from semistab.polycore import Poly, PolyMatrix, act_group, partial_derivative, support_set
from semistab.radon import (
    CurvatureForm,
    NonTransverse,
    RadonProblem,
    UnstableCertificate,
    balanced_check,
    curvature_form,
    model_exponents,
    moment_family_type1,
    moment_family_type2,
    pencil_destabilizer,
    semistability_verdict,
    verify_radon_decomposition,
)


def parabola_problem():
    # phi = x2 - (x1 - t)^2 / 2 in variables (x1, x2, t)
    phi = Poly(3, {(0, 1, 0): 1, (2, 0, 0): F(-1, 2), (1, 0, 1): 1,
                   (0, 0, 2): F(-1, 2)})
    return RadonProblem(2, 2, 1, [phi])


# -- curvature forms -----------------------------------------------------------------


def test_curvature_parabola():
    Q = curvature_form(parabola_problem(), [0, 0, 0])
    assert Q.shape == (1, 1, 1)
    assert Q.tensor[0][0][0] == 1


def test_curvature_zero_form():
    phi = Poly(3, {(0, 1, 0): 1, (1, 0, 3): 1})  # x2 + t^3 x1
    Q = curvature_form(RadonProblem(2, 2, 1, [phi]), [0, 0, 0])
    assert Q.to_polymatrix().is_zero()


def test_curvature_shape_contract():
    # n = 7, n1 = 8, k = 5: shape (5, 2, 3)
    rng = np.random.default_rng(1)
    n, n1, k = 7, 8, 5
    nt = n1 - k
    nv = n + nt
    phi = []
    for i in range(k):
        terms = {}
        ei = [0] * nv
        ei[n - k + i] = 1
        terms[tuple(ei)] = 1  # x_{n-k+i}: makes the Jacobian full rank
        for j in range(n - k):
            for l in range(nt):
                key = [0] * nv
                key[j] = 1
                key[n + l] = 1
                terms[tuple(key)] = F(int(rng.integers(-5, 6)))
        phi.append(Poly(nv, terms))
    Q = curvature_form(RadonProblem(n, n1, k, phi), [0] * nv)
    assert Q.shape == (5, 2, 3)


def test_curvature_nontransverse_detection():
    # rank-deficient x-Jacobian at the base point
    phi = Poly(3, {(2, 0, 0): 1, (0, 2, 0): 1})
    with pytest.raises(NonTransverse):
        curvature_form(RadonProblem(2, 2, 1, [phi]), [0, 0, 0])


def test_curvature_normalization_scales_target():
    # doubling the pivot coordinate halves the extracted tensor
    phi = Poly(3, {(0, 1, 0): 2, (1, 0, 1): 1})
    Q = curvature_form(RadonProblem(2, 2, 1, [phi]), [0, 0, 0])
    assert Q.tensor[0][0][0] == F(1, 2)


# -- verdicts ----------------------------------------------------------------------------


def test_verdict_unit_form_positive():
    Q = CurvatureForm([[[F(1)]]])
    v = semistability_verdict(Q)
    assert v.state == "positive"
    assert v.certificate.kind == "sparse"
    assert v.value_bound == pytest.approx(1.0)


def test_verdict_parabola_positive():
    Q = curvature_form(parabola_problem(), [0, 0, 0])
    v = semistability_verdict(Q)
    assert v.state == "positive"


def test_verdict_zero_unstable():
    v = semistability_verdict(CurvatureForm([[[F(0)]]]))
    assert v.state == "unstable"
    assert v.certificate.exact


def test_verdict_5_2_3_always_unstable():
    random.seed(101)
    for trial in range(6):
        T = [[[F(random.randint(-9, 9)) for _ in range(3)] for _ in range(2)]
             for _ in range(5)]
        Q = CurvatureForm(T)
        v = semistability_verdict(Q, restarts=4, seed=trial)
        assert v.state == "unstable"
        cert = v.certificate
        assert isinstance(cert, UnstableCertificate) and cert.exact
        assert cert.reverify(Q.to_polymatrix())


def test_pencil_destabilizer_margin_exact():
    random.seed(55)
    T = [[[F(random.randint(-9, 9)) for _ in range(3)] for _ in range(2)]
         for _ in range(5)]
    P = CurvatureForm(T).to_polymatrix()
    got = pencil_destabilizer(P, F(1, 3))
    assert got is not None
    g, dest = got
    Pg = act_group(P, g)
    assert dest.verify(support_set(Pg), F(1, 3))
    assert dest.margin > 0


def test_pencil_destabilizer_transpose_shape():
    random.seed(56)
    # shape (a, b, c) with 2 rows and 5 columns, z in R^3
    T = [[[F(random.randint(-9, 9)) for _ in range(3)] for _ in range(5)]
         for _ in range(2)]
    P = CurvatureForm(T).to_polymatrix()
    got = pencil_destabilizer(P, F(1, 3))
    assert got is not None
    g, dest = got
    assert dest.verify(support_set(act_group(P, g)), F(1, 3))


def test_verdict_invariance_under_volume_one_maps():
    random.seed(77)
    L_out = [[F(1), F(0)], [F(3), F(1)]]
    L_x = [[F(1), F(-2)], [F(0), F(1)]]
    L_t = [[F(1), F(0)], [F(5), F(1)]]

    # positive stays positive: diag-pattern 2 x 2 x 2 form
    T = [[[F(1), F(0)], [F(0), F(0)]], [[F(0), F(0)], [F(0), F(1)]]]
    Q = CurvatureForm(T)
    assert semistability_verdict(Q, restarts=8, seed=0).state == "positive"
    Q2 = Q.transformed(L_out, L_x, L_t)
    v2 = semistability_verdict(Q2, restarts=8, seed=0)
    assert v2.state == "positive"

    # unstable stays unstable
    T = [[[F(random.randint(-9, 9)) for _ in range(3)] for _ in range(2)]
         for _ in range(5)]
    Q = CurvatureForm(T)
    L5 = [[F(1 if i == j else 0) for j in range(5)] for i in range(5)]
    L5[0][1] = F(7)
    Q3 = Q.transformed(L5, [[F(1), F(1)], [F(0), F(1)]],
                       [[F(1), F(0), F(0)], [F(2), F(1), F(0)],
                        [F(0), F(0), F(1)]])
    v3 = semistability_verdict(Q3, restarts=4, seed=0)
    assert v3.state == "unstable"


# -- the one curvature-form function against the old charts -----------------------------

ORACLE_PROBLEMS = 120


def _seeded_problem(seed):
    """A random (problem, base point): exponents <= 3, small rationals, and
    the linear term x_i in phi^i for most seeds, so that most problems are
    transverse and some are not."""
    rng = random.Random(seed)
    n, n1 = rng.randint(2, 4), rng.randint(2, 4)
    k = rng.randint(1, min(n, n1) - 1)
    nv = n + n1 - k
    phi = []
    for i in range(k):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            alpha = [0] * nv
            for _ in range(rng.randint(1, 3)):
                alpha[rng.randrange(nv)] += 1
            terms[tuple(alpha)] = F(rng.randint(-9, 9), rng.randint(1, 5))
        if rng.random() < 0.9:
            terms[tuple(int(m == i) for m in range(nv))] = F(rng.randint(1, 4))
        phi.append(Poly(nv, terms))
    z0 = [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else F(0)
          for _ in range(nv)]
    return RadonProblem(n, n1, k, phi), z0


def _as_float(prob):
    return RadonProblem(prob.n, prob.n1, prob.k,
                        [Poly(f.dim, {a: float(c) for a, c in f.terms.items()},
                              exact=False) for f in prob.phi])


def _both_charts(new, old, prob, z0):
    """(new form, old form), or None when both raise NonTransverse."""
    try:
        expected = old(prob, z0)
    except NonTransverse:
        with pytest.raises(NonTransverse):
            new(prob, z0)
        return None
    return new(prob, z0), expected


def test_exact_chart_matches_reference():
    decided = 0
    for seed in range(ORACLE_PROBLEMS):
        got = _both_charts(curvature_form, ref.curvature_form, *_seeded_problem(seed))
        if got is None:
            continue
        new, old = got
        assert new.chart == old.chart == "exact"
        assert new.tensor == old.tensor
        assert all(type(v) is F for pl in new.tensor for row in pl for v in row)
        decided += 1
    assert decided >= 100


def test_float_chart_matches_reference_bitwise():
    decided = 0
    for seed in range(ORACLE_PROBLEMS):
        prob, z0 = _seeded_problem(seed)
        got = _both_charts(curvature_form, ref._curvature_form_float,
                           _as_float(prob), [float(v) for v in z0])
        if got is None:
            continue
        new, old = got
        assert new.chart == old.chart == "float"
        assert np.asarray(new.tensor).tobytes() == np.asarray(old.tensor).tobytes()
        assert all(type(v) is float for pl in new.tensor for row in pl for v in row)
        decided += 1
    assert decided >= 100


def test_transformed_matches_reference():
    rng = random.Random(9)
    for _ in range(40):
        k, b, c = (rng.randint(1, 3) for _ in range(3))
        Q = CurvatureForm([[[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(c)]
                            for _ in range(b)] for _ in range(k)])
        L_out, L_x, L_t = ([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
                            for _ in range(m)] for m in (k, b, c))
        new, old = Q.transformed(L_out, L_x, L_t), ref.transformed(Q, L_out, L_x, L_t)
        assert new.tensor == old.tensor
        assert all(type(v) is F for pl in new.tensor for row in pl for v in row)


# -- exponents ---------------------------------------------------------------------------


def test_model_exponents_examples():
    me = model_exponents(3, 3, 2)
    assert (me["r2"], me["r1"]) == (F(5, 3), F(5, 3))
    me = model_exponents(2, 2, 1)
    assert (me["r2"], me["r1"]) == (F(3, 2), F(3, 2))


def test_model_exponents_identity_random_triples():
    rng = np.random.default_rng(31)
    found = 0
    while found < 20:
        n = int(rng.integers(2, 12))
        n1 = int(rng.integers(2, 12))
        k = int(rng.integers(1, 8))
        if not k < min(n, n1):
            continue
        me = model_exponents(n, n1, k)
        assert (n + k) * me["inv_p2"] + (n1 + k) * me["inv_p1"] == n + n1
        found += 1


def test_model_exponents_rejects_bad_dims():
    with pytest.raises(ValueError):
        model_exponents(2, 2, 2)


def test_exponent_chain_matches_tile_plan():
    # with (p, q, d) = (k, n, n1-k) the two-tile plan's tau equals the dual
    # model exponent minus one: tau = d q / ((q-p) p) = r1' - 1
    from semistab.tileplan import solve_plan, tile_point
    from semistab.blockdecomp import BlockDecomposition, Tile

    rng = np.random.default_rng(13)
    found = 0
    while found < 10:
        n = int(rng.integers(2, 10))
        n1 = int(rng.integers(2, 10))
        k = int(rng.integers(1, 6))
        if not k < min(n, n1):
            continue
        p, q, d = k, n, n1 - k
        dec = BlockDecomposition([p], [p, q - p], [[0, 1]], PolyMatrix.identity(p, 1),
                                 PolyMatrix.identity(q, 1))
        pts = [tile_point(dec, Tile((0, 0), (0, 0)), 0),
               tile_point(dec, Tile((0, 0), (1, 1)), F(1, d))]
        plan = solve_plan(pts, p, q)
        assert plan.tau == F(d * q, (q - p) * p)
        r1 = model_exponents(n, n1, k)["r1"]
        r1_dual = r1 / (r1 - 1)
        assert plan.tau == r1_dual - 1
        found += 1


# -- balanced families ---------------------------------------------------------------------


def test_balanced_type1_example():
    res = balanced_check([(1, 0), (0, 1)], 1, k=1)
    assert res.ok and res.sigma == F(1, 2) and res.N == 2
    assert res.r == F(4, 3)
    assert res.target == 2


def test_balanced_type2_parabola():
    res = balanced_check([(2,)], 2, d=1)
    assert res.ok and res.sigma == 1 and res.N == 1
    assert res.r == F(3, 2)
    assert res.target == 3


def test_balanced_type2_rejects_degree_one():
    res = balanced_check([(1,)], 2, d=1)
    assert not res.ok


def test_balanced_closure_witness():
    # (2, 0) present but (1, 0) missing: type 1 closure fails with witness
    res = balanced_check([(2, 0), (0, 2), (1, 1)], 1, k=1)
    assert not res.ok
    assert res.witness is not None


def test_balanced_type1_moment_curve():
    res = balanced_check([(1,), (2,), (3,)], 1, k=1)
    assert res.ok and res.sigma == 2 and res.N == 3


# -- decomposition verification ---------------------------------------------------------


def test_radon_verify_type1():
    M, A, B, P, right, sigma = moment_family_type1([(1, 0), (0, 1)], 1)
    rep = verify_radon_decomposition(M, A, B, P)
    assert rep.ok and rep.det_ok and rep.degree_monotone
    # the right block supports the sparse criterion at the balance parameter
    from semistab.gitnorm import sparse_criterion

    sv = sparse_criterion(right, sigma)
    assert sv.applicable and sv.positive


def test_radon_verify_type1_multiblock():
    M, A, B, P, right, sigma = moment_family_type1([(1,), (2,)], 2)
    rep = verify_radon_decomposition(M, A, B, P)
    assert rep.ok


def test_radon_verify_type2():
    M, A, B, P, right, sigma = moment_family_type2([(2,)])
    rep = verify_radon_decomposition(M, A, B, P)
    assert rep.ok
    from semistab.gitnorm import sparse_criterion

    sv = sparse_criterion(right, sigma)
    assert sv.applicable and sv.positive


def test_radon_verify_type2_bigger():
    M, A, B, P, right, sigma = moment_family_type2([(2, 0), (0, 2), (1, 1),
                                                    (2, 1), (1, 2)])
    rep = verify_radon_decomposition(M, A, B, P)
    assert rep.ok


def test_radon_verify_detects_perturbation():
    M, A, B, P, right, sigma = moment_family_type1([(1, 0), (0, 1)], 1)
    bad = [[e for e in row] for row in P.entries]
    i, j = 0, P.q - 1
    bad[i][j] = bad[i][j].scale(F(3, 2))  # one wrong coefficient
    rep = verify_radon_decomposition(M, A, B, PolyMatrix(bad))
    assert not rep.ok
    assert any(v[0] == (i, j) for v in rep.violations)


# -- first-order reduction of generic incidence data ---------------------------------------


def test_prop9_generic_first_order_block():
    # the incidence matrices M(t) of defining maps phi_i = sum_j M_ij(t) x_j
    # built over a derivative-closed family: eliminate yields the coarse
    # two-group decomposition with D = [0, 1] and a trailing group of
    # dimension q - p
    from flow_reference import _exp_flow, _mat_mul_frac
    from semistab.blockdecomp import eliminate, verify_block_decomposition, pm_mul

    rng = np.random.default_rng(23)
    hits = 0
    trials = 0
    for trial in range(8):
        n, n1, k = 4, 4, 2
        nt = n1 - k
        q = n
        # commuting nilpotent generators: polynomials in one strictly upper N
        N = [[F(0)] * q for _ in range(q)]
        for i in range(q):
            for j in range(i + 1, q):
                N[i][j] = F(int(rng.integers(-3, 4)))

        def poly_in_N(c1, c2):
            out = [[F(0)] * q for _ in range(q)]
            P1 = N
            P2 = _mat_mul_frac(N, N)
            for i in range(q):
                for j in range(q):
                    out[i][j] = c1 * P1[i][j] + c2 * P2[i][j]
            return out

        gens = [poly_in_N(F(int(rng.integers(-2, 3))), F(int(rng.integers(-2, 3))))
                for _ in range(nt)]
        M0 = [[F(int(rng.integers(-5, 6))) for _ in range(q)] for _ in range(k)]
        Kneg = _exp_flow(gens, nt, q)
        K = PolyMatrix([[Poly(nt, {a: (c if sum(a) % 2 == 0 else -c)
                                   for a, c in e.terms.items()})
                         for e in row] for row in Kneg.entries])
        M = pm_mul(PolyMatrix([[Poly.constant(nt, v) for v in row]
                               for row in M0]), K)
        if not has_generic_rank_p(M):
            continue
        trials += 1
        A, B, R, dec = eliminate(M)
        assert verify_block_decomposition(M, dec).ok
        if dec.col_groups == [k, n - k] and dec.D[0] == [0, 1] \
                and len(dec.row_groups) == 1:
            hits += 1
    assert trials >= 5 and hits >= trials - 1


def test_radon_problem_jacobian_rank_invariant():
    # the x-Jacobian d phi / d x_j of phi in the variables (x1, x2, t)
    x_jacobian = lambda phi: PolyMatrix([[partial_derivative(phi, e)
                                          for e in ([1, 0, 0], [0, 1, 0])]])
    phi = Poly(3, {(0, 1, 0): 1, (2, 0, 0): F(-1, 2), (1, 0, 1): 1})
    assert has_generic_rank_p(x_jacobian(phi))
    # a map whose x-Jacobian is identically rank-deficient
    degenerate = Poly(3, {(0, 0, 2): 1})
    assert not has_generic_rank_p(x_jacobian(degenerate))


def test_radon_problem_shape_validation():
    with pytest.raises(ValueError):
        RadonProblem(2, 2, 2, [Poly.zero(2), Poly.zero(2)])


def certified(P, got, sigma):
    """True when ``got`` is a (frame, destabilizer) pair that passes reverify."""
    return got is not None and UnstableCertificate(*got, exact=True,
                                                   sigma=sigma).reverify(P)


def test_verdict_degenerate_pencil_inputs_do_not_crash():
    # equal slices: the row flattening has rank 3, so its frame leaves two
    # zero rows, and the flattening stage, which runs first, decides
    T = [[[F(1) if l == i % 3 else F(0) for l in range(3)] for _ in range(2)]
         for i in range(5)]
    P = CurvatureForm(T).to_polymatrix()
    assert certified(P, pencil_destabilizer(P, F(1, 3)), F(1, 3))
    v = semistability_verdict(CurvatureForm(T), restarts=4, seed=0)
    assert v.state == "unstable"
    assert v.detail == "pencil-reduction destabilizer"
    assert v.certificate.reverify(P)


def _count_lps(monkeypatch):
    import semistab.gitnorm as gn

    calls, solve = [], gn.solve_eq_lp

    def spy(*args, **kwargs):
        calls.append(kwargs.get("c2") is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(gn, "solve_eq_lp", spy)
    return calls


@pytest.mark.parametrize("name", ["seeded", "rank_one"])
def test_flattening_verdicts_solve_one_lp(monkeypatch, name):
    # the flattening stage runs before the identity frame, and its margin
    # and l1 objectives are one lexicographic LP
    T = (random_form(random.Random(1), (5, 2, 3)) if name == "seeded"
         else [[[F(1)] * 3 for _ in range(2)] for _ in range(5)])
    calls = _count_lps(monkeypatch)
    v = semistability_verdict(CurvatureForm(T))
    assert v.state == "unstable"
    assert v.detail == "pencil-reduction destabilizer"
    assert calls == [True]


# a triangular 3x3x3 form with an identity-frame destabilizer of margin 1/2
TRIANGULAR_T = [[[0, 3, 1], [0, 0, 1], [5, 0, 0]], [[3, 3, 5], [5, 3, 0], [0, 0, 0]],
                [[1, 0, 0], [1, 0, 0], [0, 0, 0]]]


def test_full_rank_form_without_castling_axis_reaches_identity_frame(monkeypatch):
    # 3x3x3 has no castling axis and every flattening of T has rank 3, so
    # the flattening stage declines after three exact ranks and no LP
    Q = CurvatureForm([[[F(v) for v in row] for row in plane] for plane in TRIANGULAR_T])
    P = Q.to_polymatrix()
    calls = _count_lps(monkeypatch)
    assert pencil_destabilizer(P, F(1, 3)) is None
    assert calls == []
    v = semistability_verdict(Q)
    assert v.state == "unstable"
    assert v.detail == "identity-frame destabilizer"
    assert v.certificate.destabilizer.margin == F(1, 2)
    assert v.certificate.reverify(P)


def test_verdict_rank_one_form_reports_drift_evidence():
    # the all-ones tensor has full support in the identity frame, and every
    # flattening has rank one: the row frame leaves four zero rows
    T2 = [[[F(1)] * 3 for _ in range(2)] for _ in range(5)]
    Q = CurvatureForm(T2)
    v = semistability_verdict(Q, restarts=4, seed=0)
    assert v.state == "unstable"
    assert v.detail == "pencil-reduction destabilizer"
    assert v.certificate.exact and v.certificate.reverify(Q.to_polymatrix())


def random_form(rng, shape):
    p, q, d = shape
    return [[[F(rng.randint(-9, 9)) for _ in range(d)] for _ in range(q)]
            for _ in range(p)]


def test_flattening_frames_match_pencil_reference():
    # on every seeded (5,2,3) form the old pencil decides, the new frame has
    # the same support, hence the same destabilizer, byte for byte
    rng = random.Random(523)
    decided = 0
    for _ in range(60):
        P = CurvatureForm(random_form(rng, (5, 2, 3))).to_polymatrix()
        old = pencil_ref.pencil_destabilizer(P, F(1, 3))
        if old is None:
            continue
        decided += 1
        new = pencil_destabilizer(P, F(1, 3))
        assert support_set(act_group(P, new[0])) == support_set(act_group(P, old[0]))
        assert (json.dumps(new[1].to_json(), sort_keys=True)
                == json.dumps(old[1].to_json(), sort_keys=True))
    assert decided == 60


@pytest.mark.parametrize("shape", [(7, 2, 4), (2, 7, 4), (2, 5, 3), (1, 2, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_castling_shapes_are_certified(shape, seed):
    # p = qd - 1 (or a permutation of it) with q != d: always unstable
    P = CurvatureForm(random_form(random.Random(seed), shape)).to_polymatrix()
    sigma = F(1, shape[2])
    assert certified(P, pencil_destabilizer(P, sigma), sigma)


@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 2, 2), (4, 2, 3), (3, 2, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_rank_deficient_forms_are_certified(shape, seed):
    # one slice on a seeded axis is a combination of the others: the
    # flattening on that axis is rank-deficient, so the form is unstable
    rng = random.Random(seed)
    T = np.array(random_form(rng, shape), dtype=object)
    axis = rng.randrange(3)
    S = np.moveaxis(T, axis, 0)
    S[0] = sum(F(rng.randint(-3, 3)) * S[i] for i in range(1, len(S)))
    P = CurvatureForm(T.tolist()).to_polymatrix()
    sigma = F(1, shape[2])
    assert certified(P, pencil_destabilizer(P, sigma), sigma)
    v = semistability_verdict(CurvatureForm(T.tolist()))
    assert v.state == "unstable" and v.certificate.reverify(P)


@pytest.mark.parametrize("shape", [(3, 2, 2), (8, 3, 3)])
@pytest.mark.parametrize("seed", range(2))
def test_square_castling_shapes_get_no_certificate(shape, seed):
    # p = qd - 1 with q = d castles to a square matrix: generic forms are
    # semistable, and no frame may claim otherwise
    P = CurvatureForm(random_form(random.Random(seed), shape)).to_polymatrix()
    assert pencil_destabilizer(P, F(1, shape[2])) is None


def test_restarts_and_seed_do_not_change_results():
    # the critical-point search is deterministic: the keywords are accepted
    # and ignored by git_norm and by the verdict's numeric stage
    from semistab import fixtures as fx
    from semistab.gitnorm import git_norm

    dump = lambda obj: json.dumps(obj.to_json(), sort_keys=True)
    P = fx.example63_P()
    Q = CurvatureForm([[[F(1)] * 3 for _ in range(2)] for _ in range(5)])
    norms, verdicts = set(), set()
    for restarts in (0, 4, 64):
        for seed in (0, 11):
            norms.add(dump(git_norm(P, F(3, 16), restarts=restarts, seed=seed)))
            verdicts.add(dump(semistability_verdict(Q, restarts=restarts, seed=seed)))
    assert len(norms) == 1 and len(verdicts) == 1


def test_curvature_float_chart():
    # irrational coefficients go through the double-precision path; the
    # verdict still lands positive by the numeric critical-point route
    phi = Poly(3, {(0, 1, 0): 1.0, (2, 0, 0): -0.5,
                   (1, 0, 1): float(np.sqrt(2)), (0, 0, 2): -0.5},
               exact=False)
    Q = curvature_form(RadonProblem(2, 2, 1, [phi]), [0, 0, 0])
    assert Q.chart == "float"
    assert Q.tensor[0][0][0] == pytest.approx(np.sqrt(2))
    v = semistability_verdict(Q, restarts=8, seed=0)
    assert v.state == "positive"
    # rational data keeps the exact chart
    phi2 = Poly(3, {(0, 1, 0): 1, (2, 0, 0): F(-1, 2), (1, 0, 1): 1,
                    (0, 0, 2): F(-1, 2)})
    assert curvature_form(RadonProblem(2, 2, 1, [phi2]), [0, 0, 0]).chart == "exact"


def scaled(tensor, c):
    return CurvatureForm([[[F(v) * c for v in row] for row in plane] for plane in tensor])


# T has an identity-frame destabilizer of margin 1; Q is T moved by three
# integer frames
UNSTABLE_T = [[[-5, -5, -2], [-2, 4, 0], [-5, 0, 0]], [[2, 0, 0], [2, 0, 0], [0, 0, 0]],
              [[4, 0, 0], [0, 0, 0], [0, 0, 0]]]
UNSTABLE_Q = CurvatureForm(UNSTABLE_T).transformed(
    [[3, -2, 1], [-2, 2, -1], [0, -3, 2]], [[-3, 0, 2], [-1, 0, 1], [3, -3, 2]],
    [[-1, -1, 3], [-2, 1, -1], [-3, -3, 1]])


def test_unstable_form_scaled_past_the_float_masses_is_not_positive():
    # times 2^-700 every mass alpha! c^2 underflowed, and git_norm's
    # zero-matrix exit made the verdict positive with value 0.0
    assert semistability_verdict(scaled(UNSTABLE_T, 1)).state == "unstable"
    for c in (1, F(1, 2 ** 700)):
        v = semistability_verdict(scaled(UNSTABLE_Q.tensor, c))
        assert v.state != "positive" and v.value_bound > 0


@pytest.mark.parametrize("form", [UNSTABLE_Q.tensor, [[[3, 0], [3, 0]], [[-3, -1], [1, 0]]]],
                         ids=["unstable", "positive"])
def test_form_keeps_its_verdict_at_every_scale_of_normal_masses(form):
    # the masses stay normal floats, but the criticality residual squared
    # them: times 10^-100 or 10^-150 it underflowed to 0 and the unstable
    # form was positive ("converged critical point"); times 10^100 it
    # overflowed, and the positive form was undetermined
    state = semistability_verdict(scaled(form, 1)).state
    for k in (-150, -100, 100, 150):
        assert semistability_verdict(scaled(form, F(10) ** k)).state == state, k


def test_sparse_positive_form_scaled_past_the_float_masses_keeps_its_bound():
    # the README's form.json tensor; the sparse stage's diagonal descent had
    # no rescale, so times 2^-700 or 10^200 its value_bound was nan
    form = [[[1, 0], [0, 1]], [[0, 1], [F(1, 2), 0]]]
    for c in (1, F(1, 2 ** 700), 10 ** 200):
        v = semistability_verdict(scaled(form, c))
        assert (v.state, v.detail) == ("positive", "sparse criterion")
        assert v.value_bound == pytest.approx(1.6817928305074292 * float(c), rel=1e-12)
    # one entry times 10^250, 10^400 or 10^-330: no power of two brings every
    # mass into the float range, and the bound was nan after two
    # RuntimeWarnings, or the coefficient's OverflowError lost the
    # certificate, or the entry's mass was dropped (0.0 as a float); the
    # certificate stays, and the bound is inf
    for c in (10 ** 250, 10 ** 400, F(1, 10 ** 330)):
        T = scaled(form, 1).tensor
        T[0][0][0] *= c
        v = semistability_verdict(CurvatureForm(T))
        assert (v.state, v.detail, v.value_bound) == ("positive", "sparse criterion",
                                                      math.inf)


def test_positive_form_scaled_past_the_float_masses_keeps_its_value():
    # times 10^200 the masses overflowed: undetermined with value nan
    B = [[[3, 0], [3, 0]], [[-3, -1], [1, 0]]]
    one = semistability_verdict(scaled(B, 1))
    assert one.state == "positive" and one.value_bound == pytest.approx(2.449, abs=1e-3)
    for c in (10 ** 200, F(1, 10 ** 200)):
        v = semistability_verdict(scaled(B, c))
        assert v.state == "positive"
        assert v.value_bound == pytest.approx(float(one.value_bound * c), rel=1e-12)
    # one entry times 10^250, 10^-200 or 10^-330: no power of two brings
    # every mass into the float range.  A search that ignored the masses that
    # underflow would end positive at 7.5e95 on the first, far below the
    # infimum 2.449e125, and ended positive at 2.449 on the others (on the
    # last the entry is 0.0 as a float); the unscaled search overflowed with
    # RuntimeWarnings.  The float stage is skipped: undetermined, with the
    # bound inf
    for (i, j, l), c in [((1, 0, 1), 10 ** 250), ((0, 0, 0), F(1, 10 ** 200)),
                         ((0, 0, 0), F(1, 10 ** 330))]:
        T = scaled(B, 1).tensor
        T[i][j][l] *= c
        v = semistability_verdict(CurvatureForm(T))
        assert (v.state, v.value_bound) == ("undetermined", math.inf)
        assert v.detail.startswith("best upper bound inf")


# -- the verdict's stages ---------------------------------------------------------------


# per stage: a form it decides, with the state and detail of its verdict
STAGE_FORMS = {
    "zero": ([[[0]]], "unstable", "zero form"),
    "sparse": ([[[1]]], "positive", "sparse criterion"),
    "pencil": (random_form(random.Random(1), (5, 2, 3)), "unstable",
               "pencil-reduction destabilizer"),
    "identity-frame": (TRIANGULAR_T, "unstable", "identity-frame destabilizer"),
    "search": ([[[1.0]]], "positive", "converged critical point"),
}


@pytest.mark.parametrize("name", STAGE_FORMS)
def test_each_stage_decides_its_form(name):
    # the verdict never reaches the identity frame on the benchmark's forms,
    # so this is that stage's only run; each exact certificate rechecks, and
    # the verdict decides the form at the same stage
    form, state, detail = STAGE_FORMS[name]
    Q = CurvatureForm(form)
    P = Q.to_polymatrix()
    v = dict(radon.STAGES)[name](P, F(1, Q.shape[2]))
    assert (v.state, v.detail) == (state, detail)
    assert v.certificate.exact == (name != "search")
    assert name == "search" or v.certificate.reverify(P)
    assert semistability_verdict(Q).to_json() == v.to_json()


# one z_l per cell, l = (i + j) mod 3: the sparse theta is 1/9 on every cell,
# and the weights v(i, j) = (1, -1, 0)[(i - j) mod 3] sum to 0 over each row,
# column and slice, so 1/9 + 2/9 v meets every equation with entries -1/9
LATIN = [[[int(l == (i + j) % 3) for l in range(3)] for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("tamper", ["entry", "negative", "outside_support", "not_sparse"])
def test_tampered_sparse_theta_raises(monkeypatch, tamper):
    Q = CurvatureForm(LATIN)
    assert semistability_verdict(Q).detail == "sparse criterion"
    sv = radon.sparse_criterion(Q.to_polymatrix(), F(1, 3))
    theta = dict(sv.theta)
    assert set(theta.values()) == {F(1, 9)}
    if tamper == "entry":
        theta[(0, 0, (1, 0, 0))] += F(1, 9)
    elif tamper == "negative":
        theta = {(i, j, a): t + F(2, 9) * (1, -1, 0)[(i - j) % 3]
                 for (i, j, a), t in theta.items()}
    elif tamper == "outside_support":
        theta[(0, 0, (0, 1, 0))] = F(0)
    else:
        # z1 + z2 has adjacent multiindices, yet theta = (1/2, 1/2) on its
        # support meets every equation
        Q = CurvatureForm([[[1, 1]]])
        theta = {(0, 0, (1, 0)): F(1, 2), (0, 0, (0, 1)): F(1, 2)}
    monkeypatch.setattr(radon, "sparse_criterion", lambda P, sigma: replace(sv, theta=theta))
    with pytest.raises(CertificateError, match="sparse"):
        semistability_verdict(Q)
