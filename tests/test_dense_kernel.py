"""Oracle tests: the dense kernel against the dict-of-terms action.

Every shape (p, q, d, degree) the suite uses, each acted on by seeded Haar
frames with random log-scales: the coefficients, the moment-map residual
matrices and the diagonal optimum must agree with
``tests/act_reference.py``.  Acted on by seeded nonsingular rational frames,
the exact results must equal the reference's term for term, and invertible
integer frames keep the degree of every shipped matrix and seeded form.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest

import act_reference as ref
from semistab import fixtures as fx
from semistab.gitnorm import _foc_matrices, haar_orthogonal, minimize_diagonal
from semistab.lp import exact_det
from semistab.polycore import (
    GroupElement,
    PolyMatrix,
    act_group,
    to_dense,
)
from semistab.radon import CurvatureForm
from test_sweep_kernel import SHIPPED

FRAMES_PER_SHAPE = 5


def _form523():
    rng = random.Random(523)
    T = [[[F(rng.randint(-9, 9)) for _ in range(3)] for _ in range(2)]
         for _ in range(5)]
    return CurvatureForm(T).to_polymatrix()


# (p, q, d, degree) -> (matrix, sigma)
SHAPES = {
    (2, 1, 2, 2): (fx.two_squares, F(1)),
    (2, 1, 2, 3): (fx.two_cubes, F(3, 2)),
    (4, 4, 2, 0): (lambda: PolyMatrix.identity(4, 2), F(0)),
    (4, 4, 2, 1): (fx.diag_linear_4, F(1, 2)),
    (5, 2, 3, 1): (_form523, F(1, 3)),
    (4, 8, 3, 2): (fx.example63_P, F(1, 5)),
}


def _frames(P, seed):
    """Haar frames times random positive diagonal scalings."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(FRAMES_PER_SHAPE):
        out.append(tuple(np.diag(np.exp(rng.normal(size=n))) @ haar_orthogonal(rng, n)
                         for n in (P.p, P.q, P.d)))
    return out


def _cases():
    for shape, (make, sigma) in SHAPES.items():
        P = make()
        assert (P.p, P.q, P.d, P.degree()) == shape
        for k, (A, B, C) in enumerate(_frames(P, sum(shape))):
            yield pytest.param(P, sigma, A, B, C, id=f"{shape}-{k}")


CASES = list(_cases())


def _act_both(P, A, B, C):
    new = act_group(P, GroupElement(A, B, C, volume_preserving=False))
    old = ref.act_group(P, A, B, C)
    return new, old


@pytest.mark.parametrize("P, sigma, A, B, C", CASES)
def test_coefficients_match_reference(P, sigma, A, B, C):
    new, old = _act_both(P, A, B, C)
    assert not new.exact and new.degree() == old.degree()
    for i in range(P.p):
        for j in range(P.q):
            e_new, e_old = new.entries[i][j].terms, old.entries[i][j].terms
            big = max([abs(c) for c in e_old.values()] + [0.0])
            for a in set(e_new) | set(e_old):
                assert abs(e_new.get(a, 0.0) - e_old.get(a, 0.0)) <= 1e-13 * big


@pytest.mark.parametrize("P, sigma, A, B, C", CASES)
def test_foc_matrices_match_reference(P, sigma, A, B, C):
    new, old = _act_both(P, A, B, C)
    *R_new, n_new = _foc_matrices(*to_dense(new), float(sigma))
    *R_old, n_old = ref.foc_matrices(old, float(sigma))
    assert abs(n_new - n_old) <= 1e-13 * n_old
    for a, b in zip(R_new, R_old):
        assert np.abs(a - b).max() <= 1e-13 * n_old


@pytest.mark.parametrize("P, sigma, A, B, C", CASES)
def test_diagonal_optimum_matches_reference(P, sigma, A, B, C):
    new, old = _act_both(P, A, B, C)
    v_new = minimize_diagonal(new, sigma).value
    v_old = minimize_diagonal(old, sigma).value
    assert abs(v_new - v_old) <= 1e-12 * v_old


def _substitute(e, C):
    """z -> e(C^T z): act_group on e as a 1 x 1 matrix."""
    g = GroupElement(((1,),), ((1,),), C, volume_preserving=False)
    return act_group(PolyMatrix([[e]]), g).entries[0][0]


def test_substitute_linear_matches_reference():
    # the single-polynomial substitution runs the same kernel on a 1 x 1 matrix
    rng = np.random.default_rng(3)
    P = fx.example63_P()
    for row in P.entries:
        for e in row:
            C = rng.normal(size=(3, 3))
            new, old = _substitute(e, C).terms, ref.substitute_linear(e, C).terms
            big = max([abs(c) for c in old.values()] + [0.0])
            for a in set(new) | set(old):
                assert abs(new.get(a, 0.0) - old.get(a, 0.0)) <= 1e-13 * big


def _rational_frames(P, seed):
    """Seeded nonsingular rational frames (A, B, C)."""
    rng = random.Random(seed)

    def frame(n):
        while True:
            M = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
            if exact_det(M) != 0:
                return M

    return [tuple(frame(n) for n in (P.p, P.q, P.d)) for _ in range(FRAMES_PER_SHAPE)]


def _exact_cases():
    for shape, (make, _) in SHAPES.items():
        P = make()
        for k, (A, B, C) in enumerate(_rational_frames(P, sum(shape))):
            yield pytest.param(P, A, B, C, id=f"{shape}-{k}")


@pytest.mark.parametrize("P, A, B, C", list(_exact_cases()))
def test_exact_action_matches_reference(P, A, B, C):
    assert P.exact
    new = act_group(P, GroupElement(A, B, C, volume_preserving=False))
    old = ref.act_group(P, A, B, C)
    assert new.exact and new.degree() == old.degree()
    assert [[e.terms for e in row] for row in new.entries] == \
        [[e.terms for e in row] for row in old.entries]
    for row in P.entries:
        for e in row:
            got = _substitute(e, C)
            assert got.exact and got.terms == ref.substitute_linear(e, C).terms


def _seeded_form(seed):
    rng = random.Random(seed)
    shape = [rng.randint(1, 5) for _ in range(3)]
    return CurvatureForm([[[F(rng.randint(-9, 9)) for _ in range(shape[2])]
                           for _ in range(shape[1])] for _ in range(shape[0])]).to_polymatrix()


DEGREE_CASES = SHIPPED + [(f"form-{seed}", _seeded_form(seed)) for seed in range(8)]


@pytest.mark.parametrize("name, P", DEGREE_CASES, ids=[name for name, _ in DEGREE_CASES])
def test_exact_action_keeps_the_degree(name, P):
    # an invertible C maps each homogeneous part invertibly and A, B act
    # invertibly on the matrix of top-degree parts, so the degree is a
    # property of the matrix that the action never lowers
    rng = random.Random(name)

    def frame(n):
        while True:
            M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if exact_det(M) != 0:
                return M

    for _ in range(3):
        A, B, C = (frame(n) for n in (P.p, P.q, P.d))
        got = act_group(P, GroupElement(A, B, C, volume_preserving=False))
        assert got.exact and got.degree() == P.degree()
