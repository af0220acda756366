"""Oracle tests: the determinant of a square polynomial matrix read as its
one maximal minor (Laplace expansion, :func:`semistab.blockdecomp.maximal_minors`)
against the Bareiss elimination it replaced (``tests/det_reference.py``).

Random exact square matrices, n <= 5, in d <= 2 variables, entries with at
most three terms of degree at most 2 and small rational coefficients; half
of those with n >= 2 are made singular by setting row 1 to a rational
multiple (possibly 0) of row 0.  The two must agree term for term, and so
must they on every shipped determinant-one witness.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import det_reference as ref  # noqa: E402
from semistab.blockdecomp import maximal_minors, unimodular  # noqa: E402
from semistab.polycore import Poly, PolyMatrix  # noqa: E402
from test_minors_kernel import shipped_witnesses  # noqa: E402


@st.composite
def square_matrices(draw):
    n, d = draw(st.integers(0, 5)), draw(st.integers(1, 2))
    coefficient = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * d).filter(lambda a: sum(a) <= 2)
    entry = st.dictionaries(exponent, coefficient, max_size=3).map(lambda t: Poly(d, t))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        # singular: row 1 is a multiple (possibly 0) of row 0
        c = Poly.constant(d, draw(coefficient))
        rows[1] = [c * e for e in rows[0]]
    return PolyMatrix(rows)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(X=square_matrices())
def test_full_minor_equals_the_bareiss_determinant(X):
    assert maximal_minors(X)[tuple(range(X.q))] == ref.pm_det(X)


def test_shipped_witnesses_have_the_bareiss_determinant():
    for d, A, B in shipped_witnesses():
        for X in (A, B):
            assert maximal_minors(X)[tuple(range(X.q))] == ref.pm_det(X) == \
                Poly.constant(d, 1)
        assert unimodular(d, A, B)


@pytest.mark.parametrize("p, q", [(1, 2), (2, 1)])
def test_unimodular_rejects_a_nonsquare_matrix(p, q):
    X = PolyMatrix([[Poly.constant(1, 1)] * q for _ in range(p)])
    with pytest.raises(ValueError, match="nonsquare"):
        unimodular(1, X)
    with pytest.raises(ValueError, match="nonsquare"):
        unimodular(1, PolyMatrix.identity(2, 1), X)
