"""Oracle tests: translation and exact evaluation through the (s, z) lift
and specialisation against the general substitution kernel they replaced.

Seeded polynomials in d <= 4 variables with up to 8 terms, translated by
seeded points: exact results must equal ``tests/subst_reference.py`` term for
term, float results must agree within 1e-15 of the largest coefficient, and
the result is exact only when the polynomial and the point both are.
"""

import random
from fractions import Fraction as F

import pytest

import subst_reference as ref
from semistab.blockdecomp import diagonal_shift, has_generic_rank_p, specialize_s
from semistab.polycore import Poly, PolyMatrix

CASES = 300


def random_poly(rng):
    d = rng.randint(1, 4)
    terms = {tuple(rng.randint(0, 3) for _ in range(d)):
             F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, 8))}
    point = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
    return Poly(d, terms), point


def as_float(P):
    return Poly(P.dim, {a: float(c) for a, c in P.terms.items()}, exact=False)


def assert_close(got, want):
    top = max((abs(c) for c in want.terms.values()), default=0.0)
    keys = set(got.terms) | set(want.terms)
    assert all(abs(got.terms.get(a, 0.0) - want.terms.get(a, 0.0)) <= 1e-15 * top
               for a in keys)


@pytest.mark.parametrize("seed", range(3))
def test_diagonal_shift_matches_substitution(seed):
    rng = random.Random(seed)
    for _ in range(CASES // 3):
        P, point = random_poly(rng)
        got = diagonal_shift(P, point)
        assert got == ref.diagonal_shift(P, point) and got.exact
        fpoint = [float(x) for x in point]
        for Q, x in [(as_float(P), fpoint), (P, fpoint), (as_float(P), point)]:
            got = diagonal_shift(Q, x)
            assert not got.exact and all(isinstance(c, float) for c in got.terms.values())
            assert_close(got, ref.diagonal_shift(as_float(P), fpoint))


@pytest.mark.parametrize("seed", range(3))
def test_specialisation_evaluates_like_the_fraction_sum(seed):
    rng = random.Random(100 + seed)
    for _ in range(CASES // 3):
        P, point = random_poly(rng)
        assert specialize_s(P, point).coeff(()) == ref.eval_poly_exact(P, point)


def test_generic_rank_reads_the_specialisation():
    s, one = Poly(1, {(1,): 1}), Poly.constant(1, 1)
    assert has_generic_rank_p(PolyMatrix([[one, s]]))
    assert not has_generic_rank_p(PolyMatrix([[s, s * s], [one, s]]))
