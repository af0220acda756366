"""The sparse elimination kernel against the dense Fraction loop it replaced.

Every system is seeded.  The reduced row echelon form and its pivot columns
are unique, so the kernel must reproduce the reference exactly, and so must
the determinant, inverse, nullspace and solve built on it.
"""

import random
from fractions import Fraction as F

import pytest

import rref_reference as ref
from semistab.lp import (
    exact_det,
    exact_inverse,
    exact_nullspace,
    exact_rank,
    exact_rref,
    exact_solve,
)


def small(rng):
    return F(rng.randint(-9, 9))


def fractional(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 12))


def huge(rng):
    return F(rng.randint(-10 ** 12, 10 ** 12), rng.choice((1, 3, 10 ** 12 + 39)))


def random_matrix(rng, m, n, density, entry):
    return [[entry(rng) if rng.random() < density else F(0) for _ in range(n)]
            for _ in range(m)]


def low_rank(rng, m, n, k, entry):
    """An m x n product of m x k and k x n factors: rank at most k."""
    L = random_matrix(rng, m, k, 1.0, entry)
    R = random_matrix(rng, k, n, 1.0, entry)
    return [[sum((L[i][t] * R[t][j] for t in range(k)), F(0)) for j in range(n)]
            for i in range(m)]


def with_zero_lines(rng, M):
    """M with a zero row and a zero column inserted at seeded places."""
    n = len(M[0]) if M else 0
    M = [row[:] for row in M]
    M.insert(rng.randint(0, len(M)), [F(0)] * n)
    c = rng.randint(0, n)
    return [row[:c] + [F(0)] + row[c:] for row in M]


def systems():
    rng = random.Random(20240611)
    out = [("0x5", []), ("4x0", [[] for _ in range(4)]), ("1x1 zero", [[F(0)]]),
           ("zero 3x4", [[F(0)] * 4 for _ in range(3)])]
    for entry in (small, fractional, huge):
        name = entry.__name__
        for m, n in ((1, 1), (3, 3), (5, 7), (7, 5), (9, 9)):
            out.append((f"dense {m}x{n} {name}", random_matrix(rng, m, n, 1.0, entry)))
        for m, n, k in ((6, 6, 3), (8, 5, 2), (5, 9, 4)):
            M = low_rank(rng, m, n, k, entry)
            out.append((f"rank<={k} {m}x{n} {name}", M))
            out.append((f"rank<={k} zero lines {name}", with_zero_lines(rng, M)))
        for m, n, dens in ((30, 33, 0.05), (60, 64, 0.03), (77, 81, 0.02)):
            out.append((f"sparse {m}x{n} {dens} {name}",
                        random_matrix(rng, m, n, dens, entry)))
    return out


SYSTEMS = systems()
SQUARE = [(name, M) for name, M in SYSTEMS if len(M) == len(M[0] if M else [])]
WITH_COLUMNS = [(name, M) for name, M in SYSTEMS if M and M[0]]


def cases(systems):
    return pytest.mark.parametrize("M", [M for _, M in systems],
                                   ids=[name for name, _ in systems])


def dense(rows, m, n):
    out = [[F(0)] * n for _ in range(m)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i][j] = v
    return out


@cases(SYSTEMS)
def test_rref_matches_dense_reference(M):
    m, n = len(M), (len(M[0]) if M else 0)
    rows, pivots = exact_rref(M)
    want_rows, want_pivots = ref.exact_rref(M)
    assert pivots == want_pivots
    assert dense(rows, m, n) == want_rows
    assert all(type(v) is F and v for row in rows for v in row.values())
    assert exact_rank(M) == len(want_pivots)
    # sparse input gives the same result
    sparse = [{j: v for j, v in enumerate(row) if v} for row in M]
    assert exact_rref(sparse) == (rows, pivots)


@cases(SYSTEMS)
def test_nullspace_matches_dense_reference(M):
    m, n = len(M), (len(M[0]) if M else 0)
    basis, pivots = exact_nullspace(M, n)
    assert pivots == ref.exact_rref(M)[1]
    if m:
        assert basis == ref.rational_nullspace(M)
    else:
        # the reference returns [] for no rows; every vector is in the kernel
        assert basis == [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for row in M:
        support = [(j, a) for j, a in enumerate(row) if a]
        assert all(sum(a * v[j] for j, a in support) == 0 for v in basis)


@cases(SQUARE)
def test_det_and_inverse_match_dense_reference(M):
    det = exact_det(M)
    assert det == ref.exact_det(M)
    assert type(det) is F
    if det:
        inv = exact_inverse(M)
        assert inv == ref.exact_inverse(M)
        n = len(M)
        assert [[sum(M[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        with pytest.raises(ValueError):
            exact_inverse(M)
        with pytest.raises(ValueError):
            ref.exact_inverse(M)


def test_det_tracks_swaps_and_scales():
    assert exact_det([]) == 1
    assert exact_det([[F(0), F(2)], [F(3), F(0)]]) == -6
    assert exact_det([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]) == F(1, 10) - F(1, 12)
    rng = random.Random(5)
    for _ in range(50):
        M = random_matrix(rng, 4, 4, 0.6, fractional)
        assert exact_det(M) == ref.exact_det(M)


def test_det_and_inverse_refuse_a_nonsquare_matrix():
    # the kernel reduces any shape; a wide matrix read as square gave the 2x2
    # identity for its inverse and 2 for its determinant, a tall one
    # "singular matrix" and 0
    wide, tall = [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]
    for M in (wide, [[1, 0, 0], [0, 2, 0]], tall, [[1, 2], [3]]):
        with pytest.raises(ValueError, match="nonsquare"):
            exact_det(M)
        with pytest.raises(ValueError, match="nonsquare"):
            exact_inverse(M)
    assert exact_inverse([]) == [] and exact_det([]) == 1


@cases(WITH_COLUMNS)
def test_solve_matches_dense_reference(M):
    rng = random.Random(len(M) * 1000 + len(M[0]))
    m, n = len(M), len(M[0])
    x0 = [fractional(rng) for _ in range(n)]
    consistent = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in M]
    # row 0 repeated with another right-hand side is always inconsistent; a
    # random right-hand side is inconsistent whenever M lacks full row rank
    cases = [(M, consistent), (M, [fractional(rng) for _ in range(m)]),
             (M + [M[0]], consistent + [consistent[0] + 1])]
    for A, b in cases:
        rows, pivots = ref.exact_rref([row + [v] for row, v in zip(A, b)])
        x = exact_solve(A, b, n)
        if n in pivots:
            assert x is None
            continue
        want = [F(0)] * n
        for r, c in enumerate(pivots):
            want[c] = rows[r][n]
        assert x == want
        assert [sum((a * v for a, v in zip(row, x)), F(0)) for row in A] == b
    assert exact_solve(*cases[0], n) is not None
    assert exact_solve(*cases[2], n) is None


def test_empty_systems():
    assert exact_rref([]) == ([], [])
    assert exact_rref([[], []]) == ([], [])
    assert exact_solve([], [], 3) == [F(0)] * 3
    assert exact_solve([{}, {}], [0, 0], 0) == []
    assert exact_solve([{}], [F(1, 2)], 0) is None
    assert exact_inverse([]) == []
