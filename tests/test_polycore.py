import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from semistab.blockdecomp import diagonal_shift
from semistab.polycore import (
    GroupElement,
    Poly,
    PolyMatrix,
    act_dense,
    act_group,
    hs_norm,
    hs_norm_sq_exact,
    mi_factorial,
    fraction_from_json,
    fraction_to_json,
    graded_basis,
    number_from_json,
    partial_derivative,
    polymatrix_from_json,
    polymatrix_to_json,
    support_set,
    to_dense,
)


def substitute(P, C):
    """z -> P(C^T z): act_group on P as a 1 x 1 matrix."""
    g = GroupElement(((1,),), ((1,),), C, volume_preserving=False)
    return act_group(PolyMatrix([[P]]), g).entries[0][0]


def test_float_poly_drops_a_coefficient_that_underflows_to_zero():
    # the zeros were dropped before the cast, so 10^-400 was kept as 0.0
    P = Poly(1, {(0,): F(1, 10 ** 400)}, exact=False)
    assert P.terms == {} and P.is_zero() and P.degree() == -1


def test_mixed_sum_drops_an_exact_term_that_underflows_to_zero():
    P = Poly(1, {(1,): F(1, 10 ** 400)}) + Poly(1, {(0,): 1.0})
    assert P.terms == {(0,): 1.0} and not P.exact and P.degree() == 0


def test_partial_derivative_basic():
    P = Poly(2, {(2, 1): 1})  # z1^2 z2
    assert partial_derivative(P, (2, 0)) == Poly(2, {(0, 1): 2})
    assert partial_derivative(Poly(2, {(2, 0): 1}), (0, 2)).is_zero()
    assert partial_derivative(Poly(2, {(1, 1): 1}), (1, 1)) == Poly.constant(2, 1)


def test_substitute_linear_diagonal():
    P = Poly(2, {(2, 0): 1})
    got = substitute(P, [[2, 0], [0, 1]])
    assert got == Poly(2, {(2, 0): 4})


def test_substitute_linear_rotation():
    # z1 under the 90-degree rotation becomes +-z2 (transpose convention)
    C = [[0, -1], [1, 0]]
    got = substitute(Poly(2, {(1, 0): 1}), C)
    assert got == Poly(2, {(0, 1): 1})


def test_substitute_linear_identity():
    P = Poly(2, {(1, 1): 1})
    eye = [[1, 0], [0, 1]]
    assert substitute(P, eye) == P


def test_act_group_row_swap():
    P = PolyMatrix([[Poly(2, {(2, 0): 1})], [Poly(2, {(0, 2): 1})]])
    swap = [[0, 1], [1, 0]]
    g = GroupElement(swap, [[1]], [[1, 0], [0, 1]])
    got = act_group(P, g)
    assert got.entries[0][0] == Poly(2, {(0, 2): 1})
    assert got.entries[1][0] == Poly(2, {(2, 0): 1})


def test_act_group_identity():
    P = PolyMatrix([[Poly(2, {(2, 0): 1})], [Poly(2, {(0, 2): 1})]])
    g = GroupElement([[1, 0], [0, 1]], [[1]], [[1, 0], [0, 1]])
    assert act_group(P, g) == P


def test_act_group_variable_scaling():
    P = PolyMatrix([[Poly(2, {(2, 0): 1})], [Poly(2, {(0, 2): 1})]])
    g = GroupElement([[1, 0], [0, 1]], [[1]], [[2, 0], [0, 1]],
                     volume_preserving=False)
    got = act_group(P, g)
    assert got.entries[0][0] == Poly(2, {(2, 0): 4})
    assert got.entries[1][0] == Poly(2, {(0, 2): 1})


def test_group_element_accepts_exact_object_arrays():
    # an object ndarray of Fractions and ints is exact, like nested lists
    A = np.array([[F(1, 2), 0], [F(3), 2]], dtype=object)
    C = np.array([[2, F(1, 3)], [0, 1]], dtype=object)
    g = GroupElement(A, np.eye(1, dtype=object), C, volume_preserving=False)
    h = GroupElement(A.tolist(), [[1]], C.tolist(), volume_preserving=False)
    assert (g.A, g.B, g.C) == (h.A, h.B, h.C)
    assert all(isinstance(v, F) for M in (g.A, g.B, g.C) for row in M for v in row)
    P = PolyMatrix([[Poly(2, {(1, 0): 1})], [Poly(2, {(0, 2): F(2, 5)})]])
    assert act_group(P, g) == act_group(P, h)
    assert act_group(P, g).exact
    # an object array holding a float takes the float path
    f = GroupElement(np.array([[1.5]], dtype=object), [[1]], [[1]],
                     volume_preserving=False)
    assert isinstance(f.A, np.ndarray) and f.A.dtype == float


def test_act_group_shape_mismatch():
    P = PolyMatrix([[Poly(2, {(2, 0): 1})], [Poly(2, {(0, 2): 1})]])
    with pytest.raises(ValueError):
        act_group(P, GroupElement([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]],
                                  [[1, 0], [0, 1]]))


def test_group_element_refuses_a_nonsquare_matrix():
    # a 2 x 3 variable change was accepted, and act_group read only its first
    # two columns: x + 2y stayed x + 2y
    P = PolyMatrix([[Poly(2, {(1, 0): 1, (0, 1): 2})]])
    wide = [[1, 0, 0], [0, 1, 0]]
    for C in (np.array(wide, dtype=float), wide):
        with pytest.raises(ValueError, match="C is not square"):
            act_group(P, GroupElement([[1]], [[1]], C, volume_preserving=False))
    with pytest.raises(ValueError, match="A is not square"):
        GroupElement([[1, 0]], [[1]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="B is not square"):
        GroupElement(np.eye(1), np.ones((1, 1, 1)), np.eye(2), volume_preserving=False)


def test_hs_norm_examples():
    P = PolyMatrix([[Poly(2, {(2, 0): 1})], [Poly(2, {(0, 2): 1})]])
    assert hs_norm(P) == pytest.approx(2.0, abs=1e-15)
    assert hs_norm(PolyMatrix([[Poly(1, {(1,): 1})]])) == 1.0
    eye = PolyMatrix([[Poly.constant(1, 1), Poly.zero(1)],
                      [Poly.zero(1), Poly.constant(1, 1)]])
    assert hs_norm(eye) == pytest.approx(math.sqrt(2))


def test_hs_norm_at_the_ends_of_the_float_range():
    top = np.finfo(float).max
    one = lambda c: PolyMatrix([[Poly(1, {(0,): c}, exact=False)]])
    two = lambda c: PolyMatrix([[Poly(1, {(0,): c, (1,): c}, exact=False)]])
    # the largest coefficients square past the float range; the norm does not
    assert hs_norm(one(top)) == top and hs_norm(one(-2.0 ** 1023)) == 2.0 ** 1023
    assert hs_norm(two(top)) == math.inf
    # squares below the smallest float no longer round the norm to zero
    assert hs_norm(two(1e-200)) == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15)
    assert hs_norm(PolyMatrix([[Poly.zero(2)] * 2] * 2)) == 0.0


def test_diagonal_shift_taylor():
    # s^2/2 shifted by a: a^2/2 + a z + z^2/2
    P = Poly(1, {(2,): F(1, 2)})
    a = F(3, 4)
    got = diagonal_shift(P, [a])
    assert got == Poly(1, {(0,): a * a / 2, (1,): a, (2,): F(1, 2)})
    assert diagonal_shift(P, [F(0)]) == P


def test_diagonal_shift_bilinear():
    P = Poly(2, {(1, 1): 1})  # s1 s2 at (1, 1)
    got = diagonal_shift(P, [F(1), F(1)])
    assert got == Poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_support_set_examples():
    P = PolyMatrix([[Poly(2, {(2, 0): 1})], [Poly(2, {(0, 2): 1})]])
    E = support_set(P)
    assert E.triples == [(0, 0, (2, 0)), (1, 0, (0, 2))]
    assert len(support_set(PolyMatrix([[Poly.zero(2)] * 2] * 2))) == 0


def test_support_set_degree1_subtile_count():
    # enumeration oracle: count the nonzero monomials of the degenerate
    # example's degree-1 subtile directly off its displayed entries
    from semistab.fixtures import example63_degree1_subtile

    sub = example63_degree1_subtile()
    by_hand = 0
    for row in sub.entries:
        for e in row:
            by_hand += len(e.terms)
    assert by_hand == 10
    assert len(support_set(sub)) == 10


def test_serialization_roundtrip():
    P = PolyMatrix([[Poly(2, {(2, 0): F(3, 7), (0, 1): F(-1, 2)})],
                    [Poly(2, {(0, 2): 1})]])
    obj = polymatrix_to_json(P)
    back = polymatrix_from_json(obj)
    assert back == P
    # graded-lex term order in the payload
    assert obj["entries"][0][0][0]["alpha"] == [0, 1]


def test_fraction_codec_round_trips_ints_and_fractions():
    rng = random.Random(16)
    for _ in range(300):
        num = rng.randint(-10 ** 40, 10 ** 40)
        x = num if rng.random() < 0.3 else F(num, rng.randint(1, 10 ** 40))
        obj = fraction_to_json(x)
        assert type(obj["num"]) is int and type(obj["den"]) is int and obj["den"] > 0
        assert fraction_from_json(obj) == x
    with pytest.raises(TypeError):
        fraction_to_json(0.5)


def test_number_decoder_reads_ints_finite_floats_and_rationals():
    assert number_from_json(-7) == -7 and type(number_from_json(3)) is F
    assert number_from_json(0.1) == F(3602879701896397, 2 ** 55)  # exact binary value
    assert number_from_json({"num": 2, "den": -6}) == F(-1, 3)
    for bad in ("2", "1/3", True, False, None, [1], math.nan, math.inf, -math.inf):
        with pytest.raises(TypeError):
            number_from_json(bad)
    with pytest.raises(ValueError):
        number_from_json({"num": 1, "den": 0})


# -- invariance properties ---------------------------------------------------


def _random_matrix(rng, p, q, d, deg):
    entries = []
    for _ in range(p):
        row = []
        for _ in range(q):
            terms = {}
            for _ in range(rng.integers(1, 4)):
                alpha = tuple(int(v) for v in rng.integers(0, deg + 1, size=d))
                if sum(alpha) > deg:
                    continue
                terms[alpha] = float(rng.normal())
            row.append(Poly(d, terms, exact=False))
        entries.append(row)
    return PolyMatrix(entries)


def _haar(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def test_orthogonal_invariance_batch():
    rng = np.random.default_rng(42)
    for _ in range(250):
        p, q, d = (int(rng.integers(1, 5)) for _ in range(3))
        P = _random_matrix(rng, p, q, d, 3)
        g = GroupElement(_haar(rng, p), _haar(rng, q), _haar(rng, d),
                         volume_preserving=False)
        n0, n1 = hs_norm(P), hs_norm(act_group(P, g))
        assert abs(n1 - n0) <= 1e-9 * max(n0, 1e-12)


def test_representation_law():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p, q, d = 2, 3, 2
        P = _random_matrix(rng, p, q, d, 2)
        g1 = GroupElement(_haar(rng, p), _haar(rng, q), _haar(rng, d),
                          volume_preserving=False)
        g2 = GroupElement(_haar(rng, p), _haar(rng, q), _haar(rng, d),
                          volume_preserving=False)
        lhs = act_group(act_group(P, g2), g1)
        g12 = GroupElement(np.asarray(g1.A) @ np.asarray(g2.A),
                           np.asarray(g1.B) @ np.asarray(g2.B),
                           np.asarray(g1.C) @ np.asarray(g2.C),
                           volume_preserving=False)
        rhs = act_group(P, g12)
        scale = max(abs(c) for row in rhs.entries for e in row
                    for c in e.terms.values())
        for i in range(p):
            for j in range(q):
                keys = set(lhs.entries[i][j].terms) | set(rhs.entries[i][j].terms)
                for a in keys:
                    va = lhs.entries[i][j].terms.get(a, 0.0)
                    vb = rhs.entries[i][j].terms.get(a, 0.0)
                    assert abs(va - vb) <= 1e-9 * max(scale, 1.0)


def test_diagonal_substitution_matches_weighted_sum():
    # ||rho_(D1,D2,D3) P||^2 = sum (D1_ii D2_jj D3^alpha)^2 |tc|^2 / alpha!
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, q, d = 2, 2, 2
        P = _random_matrix(rng, p, q, d, 3)
        w1, w2, w3 = rng.normal(size=p), rng.normal(size=q), rng.normal(size=d)
        g = GroupElement(np.diag(np.exp(w1)), np.diag(np.exp(w2)),
                         np.diag(np.exp(w3)), volume_preserving=False)
        lhs = hs_norm(act_group(P, g)) ** 2
        rhs = 0.0
        for i in range(p):
            for j in range(q):
                for a, c in P.entries[i][j].terms.items():
                    tc = c * mi_factorial(a)
                    scale = math.exp(w1[i]) * math.exp(w2[j]) * math.exp(
                        float(np.dot(w3, a)))
                    rhs += (scale * tc) ** 2 / mi_factorial(a)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-9)


def test_exact_norm_squared():
    P = PolyMatrix([[Poly(2, {(2, 0): 1})], [Poly(2, {(0, 2): 1})]])
    assert hs_norm_sq_exact(P) == 4


def test_float_action_prunes_each_entry_once():
    # z0 + z1 under a 45-degree turn keeps a rounding residue of ~1e-16 on z0,
    # pruned against its own entry; the 1e-20 entry is kept whole
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert c != s
    C = np.array([[c, -s], [s, c]])
    P = PolyMatrix([[Poly(2, {(1, 0): 1, (0, 1): 1})],
                    [Poly(2, {(1, 0): F(1, 10 ** 20)})]])
    basis, T = to_dense(P)
    dense = act_dense(basis, T, np.eye(2), np.eye(1), C)
    assert np.count_nonzero(dense[0, 0]) == 1 and np.count_nonzero(dense[1, 0]) == 2
    got = act_group(P, GroupElement(np.eye(2), np.eye(1), C, volume_preserving=False))
    assert set(got.entries[0][0].terms) == {(0, 1)}
    assert got.entries[0][0].terms[(0, 1)] == pytest.approx(math.sqrt(2), rel=1e-15)
    assert set(got.entries[1][0].terms) == {(1, 0), (0, 1)}
    assert not got.exact and got.degree_cap == 1


def test_singular_variable_change_is_scale_free():
    eye = lambda n: np.eye(n)
    # well conditioned at any scale: accepted (det 1e-60 here)
    GroupElement(eye(1), eye(1), 1e-20 * eye(3), volume_preserving=False)
    GroupElement([[1]], [[1]], [[F(1, 10 ** 30), 0], [0, 1]], volume_preserving=False)
    singular = (
        np.array([[1.0, 2.0], [2.0, 4.0]]),          # exactly singular, float
        np.diag([1.0, 1e-13]),                       # sigma_min <= 1e-12 sigma_max
        np.array([[1.0, 0.0], [0.0, np.inf]]),       # not finite
        np.array([[1.0, 0.0], [0.0, np.nan]]),
        [[F(1), F(2)], [F(2), F(4)]],                # exactly singular, exact
        np.zeros((2, 2)),
    )
    for C in singular:
        with pytest.raises(ValueError, match="singular"):
            GroupElement(eye(1), eye(1), C, volume_preserving=False)


def test_monomials_are_the_powers_and_fill_out():
    rng = np.random.default_rng(4)
    for d in range(1, 5):
        for D in range(6):
            basis = graded_basis(d, D)
            pts = rng.uniform(-2, 2, size=(33, d))
            Z = basis.monomials(pts)
            want = np.prod(pts[None] ** basis.exps[:, None], axis=2)
            assert np.allclose(Z, want, rtol=1e-13, atol=0)
            out = np.full_like(Z, np.nan)
            assert basis.monomials(pts, out=out) is out
            assert np.array_equal(out, Z)
