"""Gauss-Jordan on the simplex's Edmonds-Bareiss pivot against the
gcd-normalising kernel it replaced (``gj_reference``).

Every system is seeded.  The reduced row echelon form and its pivot columns
are unique for a given row space, so each wrapper built on the kernel must
give exactly what it gives on the reference kernel, and the determinant must
equal the one the reference's (num, den) bookkeeping gives.
"""

import math
import random
from fractions import Fraction as F

import pytest

import gj_reference as ref
from semistab import lp


def integer(rng):
    return rng.randint(-9, 9) or 1


def rational(rng):
    return F(rng.randint(-30, 30) or 1, rng.randint(1, 15))


def sparse(rng, m, n, density, entry):
    return [[entry(rng) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]


def systems():
    rng = random.Random(20261019)
    out = [
        ("empty", []), ("no columns", [[], [], []]), ("1x1 zero", [[0]]),
        # a zero in the first pivot position forces a row swap
        ("swap", [[0, 1], [1, 0]]), ("swap 3x3", [[0, 0, 2], [0, 3, 1], [5, 1, 1]]),
        ("negative pivots", [[-2, 1, 0], [3, -5, 1], [1, 1, -7]]),
        ("swap and negative", [[0, -4, 1], [-3, 2, 0], [1, 0, -1]]),
        ("rational", [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]),
    ]
    for name, entry in (("int", integer), ("rational", rational)):
        for m, n, density in ((4, 4, 0.5), (6, 6, 0.3), (9, 9, 0.2), (3, 8, 0.4),
                              (8, 3, 0.4), (12, 17, 0.15), (25, 20, 0.1), (40, 44, 0.05)):
            M = sparse(rng, m, n, density, entry)
            out.append((f"{name} {m}x{n} {density}", M))
            # a duplicate row and a zero row at seeded places
            dup = [row[:] for row in M]
            dup.insert(rng.randint(0, m), M[rng.randrange(m)][:])
            dup.insert(rng.randint(0, m + 1), [0] * n)
            out.append((f"{name} {m}x{n} {density} duplicate and zero rows", dup))
            if m == n:
                # square and singular: one row a combination of two others
                sing = [row[:] for row in M]
                i, j, k = rng.sample(range(m), 3)
                sing[k] = [2 * a - F(b, 3) for a, b in zip(M[i], M[j])]
                out.append((f"{name} {m}x{n} {density} singular", sing))
    return out


SYSTEMS = systems()
SQUARE = [(name, M) for name, M in SYSTEMS if M and len(M) == len(M[0])]


def cases(systems):
    return pytest.mark.parametrize("M", [M for _, M in systems],
                                   ids=[name for name, _ in systems])


def width(M):
    return len(M[0]) if M else 0


def reference_det(M):
    a, pivots, (num, den) = ref._gauss_jordan(M)
    if len(pivots) < len(M):
        return F(0)
    return F(den * math.prod(row[c] for row, c in zip(a, pivots)), num)


def wrappers(M, rng):
    """Everything the wrappers return on M, with a seeded right-hand side
    for the solve; exact_det is left out (its kernel output differs)."""
    n = width(M)
    b = [rational(rng) for _ in M]
    out = {"rref": lp.exact_rref(M), "rank": lp.exact_rank(M),
           "nullspace": lp.exact_nullspace(M, n), "solve": lp.exact_solve(M, b, n),
           "frame": lp.echelon_frame(M)}
    if M and len(M) == n:
        try:
            out["inverse"] = lp.exact_inverse(M)
        except ValueError:
            out["inverse"] = "singular"
    return out


@cases(SYSTEMS)
def test_kernel_matches_reference(M):
    a, pivots, _ = lp._gauss_jordan(M)
    want, want_pivots, _ = ref._gauss_jordan(M)
    assert pivots == want_pivots
    # integer rows, each a positive multiple of the reference's reduced row
    assert all(type(v) is int for row in a for v in row.values())
    assert all(row[c] > 0 for row, c in zip(a, pivots))
    assert ([{k: F(v, row[c]) for k, v in row.items()} for row, c in zip(a, pivots)]
            == [{k: F(v, row[c]) for k, v in row.items()} for row, c in zip(want, pivots)])
    # {column: value} rows give the same result
    rows = [{j: v for j, v in enumerate(row) if v} for row in M]
    assert lp._gauss_jordan(rows) == lp._gauss_jordan(M)


@cases(SYSTEMS)
def test_wrappers_match_reference_kernel(M, monkeypatch):
    got = wrappers(M, random.Random(len(M)))
    monkeypatch.setattr(lp, "_gauss_jordan", ref._gauss_jordan)
    assert got == wrappers(M, random.Random(len(M)))


@cases(SQUARE)
def test_det_matches_reference(M):
    det = lp.exact_det(M)
    assert type(det) is F and det == reference_det(M)
    assert (det == 0) == (lp.exact_rank(M) < len(M))


def test_echelon_frame_brings_M_to_reduced_form():
    rng = random.Random(3)
    for m, n in ((3, 5), (5, 3), (4, 4)):
        M = sparse(rng, m, n, 0.5, rational)
        M[-1] = [a + b for a, b in zip(M[0], M[1])]
        E, pivots = lp.echelon_frame(M)
        rows, want = lp.exact_rref(M)
        assert pivots == want and lp.exact_rank(E) == m
        EM = [[sum(E[i][k] * M[k][j] for k in range(m)) for j in range(n)]
              for i in range(m)]
        assert EM[:len(rows)] == [[row.get(j, 0) for j in range(n)] for row in rows]
        assert all(not any(row) for row in EM[len(rows):])


def test_integer_scale():
    assert lp.integer_scale([]) == ([], 1)
    assert lp.integer_scale([F(1, 2), 3, F(-2, 3), 0]) == ([3, 18, -4, 0], 6)
    ints, L = lp.integer_scale([F(5, 4), F(7, 6)])
    assert (ints, L) == ([15, 14], 12) and all(type(v) is int for v in ints)
