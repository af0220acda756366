"""Worked-example fixtures: the matrices, decompositions and plans used by
the test suite and shipped as JSON for the command line.

Diagonal variables inside this package are z = t - s.  The literature
displays use z = s - t; a fixture taken from one carries the sign flip on
odd z-degrees in its data (see :func:`example61_reduced_display`).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .blockdecomp import BlockDecomposition, Tile, eliminate, tile_map
from .polycore import Poly, PolyMatrix

F = Fraction


def _mono(d, expo, c=1):
    return Poly(d, {tuple(expo): c})


def _const(d, c=1):
    return Poly.constant(d, c)


def _zero(d):
    return Poly.zero(d)


def two_squares() -> PolyMatrix:
    """The 2 x 1 matrix [z1^2; z2^2]."""
    return PolyMatrix([[_mono(2, (2, 0))], [_mono(2, (0, 2))]])


def diag_linear_4() -> PolyMatrix:
    """diag-pattern 4 x 4 matrix with entries z1, z2, z1, z2."""
    z1 = _mono(2, (1, 0))
    z2 = _mono(2, (0, 1))
    o = _zero(2)
    return PolyMatrix([[z1, o, o, o], [o, z2, o, o],
                       [o, o, z1, o], [o, o, o, z2]])


def two_cubes() -> PolyMatrix:
    """[2 z1^3; 2 z2^3] (the trailing tile of the 4 x 9 example)."""
    return PolyMatrix([[_mono(2, (3, 0), 2)], [_mono(2, (0, 3), 2)]])


# -- the 3 x 5 introductory product ---------------------------------------------------


def intro_U() -> PolyMatrix:
    """3 x 5 incidence matrix in one variable s."""
    d = 1
    s = _mono(d, (1,))
    return PolyMatrix([
        [_const(d), _zero(d), _zero(d), s, _zero(d)],
        [_zero(d), _const(d), _zero(d), _zero(d), s],
        [s.scale(-1), _mono(d, (2,), F(-1, 2)), _const(d),
         _mono(d, (2,), F(-1, 2)), _mono(d, (3,), F(-1, 3))],
    ])


def intro_V() -> PolyMatrix:
    """5 x 5 unimodular column witness in one variable t."""
    d = 1
    t = _mono(d, (1,))
    t2 = _mono(d, (2,))
    t3 = _mono(d, (3,))
    o = _zero(d)
    one = _const(d)
    return PolyMatrix([
        [one, o, o, t.scale(-1), t2],
        [o, one, o, o, t.scale(-1)],
        [o, o, one, t2.scale(F(-1, 2)), t3.scale(F(1, 3))],
        [o, o, o, one, t.scale(-1)],
        [o, o, o, o, one],
    ])


def intro_decomposition() -> tuple:
    """(M, decomp) for the introductory product, groups (2,1) x (3,1,1)."""
    M = intro_U()
    decomp = BlockDecomposition(
        row_groups=[2, 1],
        col_groups=[3, 1, 1],
        D=[[0, 1, 1], [0, 2, 3]],
        A=PolyMatrix.identity(M.p, 1),
        B=intro_V(),
    )
    return M, decomp


# -- the 4 x 9 two-parameter example ---------------------------------------------------


def example61_matrix() -> PolyMatrix:
    d = 2
    s1 = _mono(d, (1, 0))
    s2 = _mono(d, (0, 1))
    o = _zero(d)
    one = _const(d)
    return PolyMatrix([
        [one, o, o, o, s1, o, o, o, _mono(d, (2, 0))],
        [o, one, o, o, o, s2, o, o, _mono(d, (0, 2))],
        [o, o, one, o, o, o, s1, o, _mono(d, (3, 0))],
        [o, o, o, one, o, o, o, s2, _mono(d, (0, 3))],
    ])


def example61_reduced_display() -> PolyMatrix:
    """The published reduced matrix, in the package convention z = t - s.

    Bivariate: variables (s1, s2, z1, z2); odd z-degrees carry the sign flip
    relative to the z = s - t display.
    """
    s1 = (1, 0, 0, 0)
    s2 = (0, 1, 0, 0)
    z1 = (0, 0, 1, 0)
    z2 = (0, 0, 0, 1)

    def P(terms):
        return Poly(4, {k: F(v) for k, v in terms.items()})

    o = P({})
    one = P({(0, 0, 0, 0): 1})
    return PolyMatrix([
        [one, o, o, o, P({z1: -1}), o, o, o, P({(0, 0, 2, 0): 1})],
        [o, one, o, o, o, P({z2: -1}), o, o, P({(0, 0, 0, 2): 1})],
        [P({s1: -3}), o, one, o, P({(1, 0, 1, 0): 3}), o, P({z1: -1}), o,
         P({(0, 0, 3, 0): 2})],
        [o, P({s2: -3}), o, one, o, P({(0, 1, 0, 1): 3}), o, P({z2: -1}),
         P({(0, 0, 0, 3): 2})],
    ])


def example61_tiles() -> list:
    return [Tile((0, 1), (0, 0)), Tile((0, 1), (1, 1)),
            Tile((0, 0), (2, 2)), Tile((1, 1), (2, 2))]


# -- the degenerate 4 x 8 example -------------------------------------------------------


def example63_matrix() -> PolyMatrix:
    d = 3
    s1 = _mono(d, (1, 0, 0))
    s2 = _mono(d, (0, 1, 0))
    s3 = _mono(d, (0, 0, 1))
    o = _zero(d)
    one = _const(d)
    return PolyMatrix([
        [one, o, o, o, o, s2, s3,
         s1 + _mono(d, (0, 2, 0), F(1, 2)) + _mono(d, (0, 0, 2), F(1, 2))],
        [o, one, o, o, s2, s1, o, _mono(d, (1, 1, 0))],
        [o, o, one, o, s1, s3, s2,
         _mono(d, (0, 1, 1)) + _mono(d, (2, 0, 0), F(1, 2))],
        [o, o, o, one, s3, o, s1, _mono(d, (1, 0, 1))],
    ])


def example63_decomposition() -> tuple:
    """(M, decomp): singleton groups, formal degrees read entrywise.

    Zero entries take the published ad-hoc degrees (0 in the identity block,
    1 in the linear block).
    """
    M = example63_matrix()
    _, B, _, _ = eliminate(M)
    D = [
        [0, 0, 0, 0, 1, 1, 1, 1],
        [0, 0, 0, 0, 1, 1, 1, 2],
        [0, 0, 0, 0, 1, 1, 1, 2],
        [0, 0, 0, 0, 1, 1, 1, 2],
    ]
    decomp = BlockDecomposition(
        row_groups=[1, 1, 1, 1],
        col_groups=[1] * 8,
        D=D,
        A=PolyMatrix.identity(M.p, M.d),
        B=B,
    )
    return M, decomp


def example63_P() -> PolyMatrix:
    """The degree-matched 4 x 8 matrix of the degenerate example."""
    M, decomp = example63_decomposition()
    return tile_map(M, decomp, Tile((0, 3), (0, 7)), [F(0)] * 3)


def example63_degree1_subtile() -> PolyMatrix:
    """Degree-1 homogeneous part of the degenerate P (columns 5-8)."""
    P = example63_P()
    rows = []
    for i in range(4):
        rows.append([P.entries[i][j].homogeneous_part(1) for j in range(4, 8)])
    return PolyMatrix(rows)


def example63_published_destabilizer_direction() -> list:
    """The published epsilon-exponent vector (rows; columns; variables)."""
    return [3, -3, 3, -3, 6, 0, 0, -6, 4, -2, -2]


# -- simple incidence families ----------------------------------------------------------


def line_family() -> PolyMatrix:
    """u(t) = (1, t): the 1 x 2 incidence matrix in one variable."""
    return PolyMatrix([[_const(1), _mono(1, (1,))]])


def anisotropic_omega(c: float):
    """The diagonal volume-one basis {(c, 0), (0, 1/c)}."""
    # lazy: sublevel loads the float search (gitnorm), which no other fixture needs
    from .sublevel import OmegaBasis

    return OmegaBasis(np.diag([c, 1.0 / c]), np.log([c, 1.0 / c]))
