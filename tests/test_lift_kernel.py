"""Oracle tests: ``Poly`` arithmetic whose results skip the validating
constructor, the lifts to (s, z) and the matrix product on that arithmetic,
against the validating arithmetic, the lift by repeated products and the
product on validating sums that they replaced (``tests/lift_reference.py``).

Results must agree byte for byte: the same terms in the same order, each
coefficient of the same type with the same repr (so -0.0 and a stored zero
would show), and the same ``exact`` flag.  The cases are seeded random exact
and float polynomials in 1-4 variables, sums that cancel to 0 and products
that underflow to -0.0, mixed exact and float operands, and
``reduced_product`` on every shipped fixture matrix with the witnesses that
``eliminate`` gives it; and what the products refuse.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest

import lift_reference as ref
from semistab import blockdecomp as bd
from semistab.polycore import Poly, PolyMatrix, partial_derivative
from test_sweep_kernel import SHIPPED


def image(P: Poly):
    return P.dim, P.exact, [(a, type(c).__name__, repr(c)) for a, c in P.terms.items()]


def matrix_image(X: PolyMatrix):
    return [[image(e) for e in row] for row in X.entries]


def random_poly(rng, dim: int, exact: bool, max_exp: int = 3) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, 5)):
        a = tuple(rng.randint(0, max_exp) for _ in range(dim))
        if exact:
            terms[a] = F(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3, 7]))
        else:
            # small integers make cancellations; the others have full mantissas
            terms[a] = rng.choice([1.0, -1.0, 2.0, rng.uniform(-3, 3), rng.uniform(-1e-3, 1e-3)])
    return Poly(dim, terms)


def pairs(seed: int, n: int):
    """n seeded (P, Q): random dims 1-4, each operand exact or float."""
    rng = random.Random(seed)
    for _ in range(n):
        dim = rng.randint(1, 4)
        yield rng, random_poly(rng, dim, rng.random() < 0.5), random_poly(rng, dim, rng.random() < 0.5)


def test_arithmetic_matches_reference_on_random_polys():
    kinds = set()
    for rng, P, Q in pairs(11, 400):
        kinds.add((P.exact, Q.exact))
        assert image(P + Q) == image(ref.add(P, Q))
        assert image(P - Q) == image(ref.sub(P, Q))
        assert image(-P) == image(ref.neg(P))
        assert image(P * Q) == image(ref.mul(P, Q))
        for c in (3, -1, F(-2, 3), 0.75, rng.uniform(-2, 2), np.float64(1.5), 0, 0.0):
            assert image(P.scale(c)) == image(ref.scale(P, c))
        deg = rng.randint(0, 4)
        assert image(P.homogeneous_part(deg)) == image(ref.homogeneous_part(P, deg))
        alpha = tuple(rng.randint(0, 2) for _ in range(P.dim))
        assert image(partial_derivative(P, alpha)) == image(ref.partial_derivative(P, alpha))
    # both kinds and both mixes occur
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_lifts_match_reference_on_random_polys():
    rng = random.Random(12)
    for _ in range(300):
        d = rng.randint(1, 4)
        # exponents up to 6, so that the float Pascal sums round
        P = random_poly(rng, d, rng.random() < 0.5, max_exp=rng.choice([2, 6]))
        for new, old in ((bd.inflate_s, ref.inflate_s), (bd.inflate_z, ref.inflate_z),
                         (bd.inflate_t, ref.inflate_t)):
            assert image(new(P, d)) == image(old(P, d))


def test_cancelling_sums_and_underflow_match_reference():
    for exact in (True, False):
        P = random_poly(random.Random(13), 2, exact)
        assert (P + (-P)).is_zero() and image(P + (-P)) == image(ref.add(P, ref.neg(P)))
        assert image(P - P) == image(ref.sub(P, P))
    # (s + 1)(s - 1): the s term cancels inside the product
    s1, one = Poly(1, {(1,): 1.0}), Poly.constant(1, 1.0)
    assert image((s1 + one) * (s1 - one)) == image(ref.mul(ref.add(s1, one), ref.sub(s1, one)))
    # 1e-200 * -1e-200 is -0.0, which no result may store
    tiny, minus = Poly(2, {(1, 0): 1e-200, (0, 1): 1.0}), Poly(2, {(0, 0): -1e-200})
    assert image(tiny * minus) == image(ref.mul(tiny, minus))
    assert (0, 1) in (tiny * minus).terms and (1, 0) not in (tiny * minus).terms
    assert image(tiny.scale(-1e-200)) == image(ref.scale(tiny, -1e-200))
    # a float sum that cancels to 0.0 leaves the terms
    a, b = Poly(1, {(2,): 0.1, (0,): 1.0}), Poly(1, {(2,): -0.1})
    assert image(a + b) == image(ref.add(a, b)) and (2,) not in (a + b).terms
    # in a matrix product the s term cancels after the second product and
    # comes back after the third, so it moves behind the constant term
    for c in (1, 1.0):
        s, unit = Poly(1, {(1,): c}), Poly.constant(1, c)
        X, Y = PolyMatrix([[s + unit, -s, s]]), PolyMatrix([[unit], [unit], [unit]])
        assert matrix_image(bd.pm_mul(X, Y)) == matrix_image(ref.pm_mul(X, Y))
        assert list(bd.pm_mul(X, Y).entries[0][0].terms) == [(0,), (1,)]
    # an exact sum turned float by a float product: its term 10^-400
    # underflows to 0.0 and goes, as in the validating constructor
    tiny, s = Poly(1, {(0,): F(1, 10**400), (2,): 3}), Poly(1, {(1,): 1.0})
    X, Y = PolyMatrix([[tiny, s]]), PolyMatrix([[Poly.constant(1, 1)], [Poly.constant(1, 1.0)]])
    assert matrix_image(bd.pm_mul(X, Y)) == matrix_image(ref.pm_mul(X, Y))
    assert list(bd.pm_mul(X, Y).entries[0][0].terms.items()) == [((2,), 3.0), ((1,), 1.0)]


def test_mixed_operands_keep_the_validating_constructor():
    exact = Poly(2, {(1, 0): F(1, 3), (0, 1): 2})
    flt = Poly(2, {(1, 0): 0.5, (2, 0): -1.0})
    for P, Q in ((exact, flt), (flt, exact)):
        for got, want in ((P + Q, ref.add(P, Q)), (P * Q, ref.mul(P, Q)),
                          (P - Q, ref.sub(P, Q))):
            assert image(got) == image(want)
            assert not got.exact and all(type(c) is float for c in got.terms.values())
    for c in (0.5, np.float64(0.5), np.float32(0.5)):
        assert image(exact.scale(c)) == image(ref.scale(exact, c))
        assert image(flt.scale(c)) == image(ref.scale(flt, c))


def random_matrix(rng, p: int, q: int, d: int, kind: str) -> PolyMatrix:
    pick = {"exact": lambda: True, "float": lambda: False,
            "mixed": lambda: rng.random() < 0.5}[kind]
    return PolyMatrix([[random_poly(rng, d, pick()) if rng.random() < 0.8 else Poly.zero(d)
                        for _ in range(q)] for _ in range(p)])


@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
def test_pm_mul_matches_reference_on_random_matrices(kind):
    rng = random.Random(14)
    for _ in range(60):
        d, p, k, q = (rng.randint(1, 3) for _ in range(4))
        X, Y = random_matrix(rng, p, k, d, kind), random_matrix(rng, k, q, d, kind)
        assert matrix_image(bd.pm_mul(X, Y)) == matrix_image(ref.pm_mul(X, Y))


def test_products_refuse_what_the_reference_refuses():
    one, one2, zero = Poly.constant(1, 1), Poly.constant(2, 1), Poly.zero(1)
    for mul in (Poly.__mul__, ref.mul):
        with pytest.raises(ValueError, match="dimension"):
            mul(one, one2)
    for mul in (bd.pm_mul, ref.pm_mul):
        with pytest.raises(ValueError, match="shape"):
            mul(PolyMatrix([[one, one]]), PolyMatrix([[one]]))
        # entries in other numbers of variables: refused once a product forms
        with pytest.raises(ValueError, match="dimension"):
            mul(PolyMatrix([[zero, one]]), PolyMatrix([[one2], [one2]]))
    X, Y = PolyMatrix([[zero, one]]), PolyMatrix([[one2], [Poly.zero(2)]])
    assert matrix_image(bd.pm_mul(X, Y)) == matrix_image(ref.pm_mul(X, Y))


@pytest.mark.parametrize("name, M", SHIPPED, ids=[name for name, _ in SHIPPED])
def test_reduced_product_matches_reference_on_fixtures(name, M):
    A, B, _, _ = bd.eliminate(M)
    assert matrix_image(bd.reduced_product(A, M, B)) == matrix_image(ref.reduced_product(A, M, B))


@pytest.mark.parametrize("lift", [bd.inflate_s, bd.inflate_z, bd.inflate_t])
def test_lifts_refuse_a_poly_in_another_number_of_variables(lift):
    # inflate_t once returned (s + z)(z + 1) here, reading the second
    # variable as z
    with pytest.raises(ValueError):
        lift(Poly(2, {(1, 1): 1}), 1)
    with pytest.raises(ValueError):
        lift(Poly.zero(3), 2)
