"""Test-only reference: dense Gauss-Jordan elimination over Fractions.

``exact_rref`` is the loop ``semistab.lp`` used before its sparse
fraction-free kernel, kept verbatim apart from this docstring.  ``exact_det``
is the dense determinant ``semistab.polycore`` carried, and ``exact_inverse``
and ``rational_nullspace`` are the helpers ``semistab.radon`` built on the
dense loop.  The oracle tests require the kernel to give equal results.
"""

from __future__ import annotations

from fractions import Fraction


def exact_rref(rows):
    """Reduced row echelon form over Fractions; returns (rows, pivot columns).

    The rank is the number of pivot columns.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return a, piv_cols


def exact_det(M) -> Fraction:
    """Determinant of a square rational matrix by fraction-free elimination."""
    n = len(M)
    a = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = Fraction(1) / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def exact_inverse(M):
    n = len(M)
    rref, piv_cols = exact_rref([list(row) + [Fraction(int(i == j)) for j in range(n)]
                                 for i, row in enumerate(M)])
    if piv_cols != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in rref]


def rational_nullspace(rows):
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    rref, piv_cols = exact_rref(rows)
    free = [c for c in range(n) if c not in piv_cols]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv_cols):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis
