"""Oracle tests: the maximal minors by a Laplace expansion that visits only
the column subsets a nonzero minor of the rows above and a nonzero entry
reach (:func:`semistab.blockdecomp.maximal_minors`), against the expansion
over every subset it replaced (``tests/minors_reference.py``); and the
determinant-one check that expands the sparsest rows first.

Minors must agree byte for byte: the same keys in the same order and, for
each minor, the same terms in the same order, each coefficient of the same
type with the same repr, and the same ``exact`` flag.  The inputs are the
m61 and m63 matrices as the Plücker table of :mod:`semistab.sublevel`
receives them, every shipped determinant-one witness, and seeded random
exact, float and mixed matrices, square and wide, with zero entries and
with rows that make minors cancel.
"""

import random
from fractions import Fraction as F

import pytest

import minors_reference as ref
from semistab import fixtures as fx
from semistab import radon
from semistab.blockdecomp import eliminate, maximal_minors, unimodular
from semistab.polycore import Poly, PolyMatrix
from test_family_builder import FAMILIES
from test_lift_kernel import image, random_poly


def shipped_witnesses():
    """(d, A, B) of every shipped decomposition and moment family."""
    _, _, _, m61 = eliminate(fx.example61_matrix())
    decs = [m61, fx.example63_decomposition()[1], fx.intro_decomposition()[1]]
    out = [(dec.d, dec.A, dec.B) for dec in decs]
    for builder, args in FAMILIES:
        M, A, B, *_ = getattr(radon, builder)(*args)
        out.append((M.d, A, B))
    return out


def minors_image(M: PolyMatrix):
    return [(S, image(m)) for S, m in maximal_minors(M).items()]


def reference_image(M: PolyMatrix):
    return [(S, image(m)) for S, m in ref.maximal_minors(M).items()]


def as_plucker_table_receives(M: PolyMatrix) -> PolyMatrix:
    # sublevel._minor_table rebuilds M from its sorted terms
    return PolyMatrix([[Poly(M.d, dict(sorted(e.terms.items()))) for e in row]
                       for row in M.entries])


@pytest.mark.parametrize("build", [fx.example61_matrix, fx.example63_matrix])
def test_minors_match_reference_on_the_plucker_matrices(build):
    M = as_plucker_table_receives(build())
    assert minors_image(M) == reference_image(M)
    assert any(not m.is_zero() for m in maximal_minors(M).values())


def test_minors_match_reference_on_shipped_witnesses():
    for _, A, B in shipped_witnesses():
        for X in (A, B):
            assert minors_image(X) == reference_image(X)


def random_matrix(rng, p: int, q: int, kind: str) -> PolyMatrix:
    """A p x q matrix in one or two variables, about a third of its entries
    zero; in half of the draws with p >= 2 the last row is a multiple of the
    first plus, sometimes, a multiple of the second, so that minors cancel."""
    d = rng.randint(1, 2)
    pick = {"exact": lambda: True, "float": lambda: False,
            "mixed": lambda: rng.random() < 0.5}[kind]
    rows = [[random_poly(rng, d, pick(), max_exp=2) if rng.random() < 0.65
             else Poly.zero(d) for _ in range(q)] for _ in range(p)]
    if p >= 2 and rng.random() < 0.5:
        c = Poly.constant(d, F(rng.choice([1, -1, 2]), rng.choice([1, 3])))
        rows[-1] = [c * e for e in rows[0]]
        if p >= 3 and rng.random() < 0.5:
            rows[-1] = [e + e2 for e, e2 in zip(rows[-1], rows[1])]
    return PolyMatrix(rows)


@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
def test_minors_match_reference_on_random_matrices(kind):
    rng = random.Random(33)
    shapes = set()
    for _ in range(150):
        p = rng.randint(0, 4)
        q = p + rng.choice([0, 0, 1, 2, 3])
        M = random_matrix(rng, p, q, kind)
        shapes.add(p == q)
        assert minors_image(M) == reference_image(M)
    assert shapes == {True, False}


def test_minors_of_a_tall_or_empty_matrix():
    tall = PolyMatrix([[Poly.constant(1, 1)], [Poly.constant(1, 2)]])
    assert maximal_minors(tall) == ref.maximal_minors(tall) == {}
    zero = PolyMatrix([[Poly.zero(1)] * 3] * 2)
    assert minors_image(zero) == reference_image(zero)
    assert len(maximal_minors(zero)) == 3


def matrix(d: int, rows) -> PolyMatrix:
    """Entries as {exponent: coefficient} dicts, or ints for constants."""
    return PolyMatrix([[Poly(d, e) if isinstance(e, dict) else Poly.constant(d, e)
                        for e in row] for row in rows])


def test_unimodular_applies_the_sign_of_the_row_order():
    # the sparser second row goes first, an odd permutation
    assert unimodular(1, matrix(1, [[1, 1], [0, 1]]))
    assert not unimodular(1, matrix(1, [[1, 1], [1, 0]]))
    s, s2 = {(1,): 1}, {(2,): F(1, 2)}
    # rows with 3, 2 and 1 nonzero entries: reversed, three inversions
    upper = [[1, s, s2], [0, 1, s], [0, 0, 1]]
    assert unimodular(1, matrix(1, upper))
    assert not unimodular(1, matrix(1, [upper[1], upper[0], upper[2]]))
    # det [[1 + s, s], [s, s - 1]] = -1, and the row (0, 0, c) goes first
    one_plus, minus_one = {(0,): 1, (1,): 1}, {(1,): 1, (0,): -1}
    for c, det_one in ((1, True), (-1, False)):
        X = matrix(1, [[one_plus, s, 0], [0, 0, c], [s, minus_one, 0]])
        assert unimodular(1, X) is det_one


def test_unimodular_rejects_a_matrix_in_another_number_of_variables():
    with pytest.raises(ValueError, match="variables"):
        unimodular(2, PolyMatrix.identity(2, 1))
    with pytest.raises(ValueError, match="variables"):
        unimodular(1, PolyMatrix.identity(2, 1), PolyMatrix.identity(2, 2))
    assert unimodular(1, PolyMatrix.identity(2, 1), PolyMatrix([]))
