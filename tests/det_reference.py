"""Test-only reference: the Bareiss determinant of a polynomial matrix.

``pm_det`` and ``poly_exact_div`` are the fraction-free elimination and the
multivariate exact division ``semistab.blockdecomp`` used for its
determinant-one check before :func:`semistab.blockdecomp.maximal_minors`
took that job, kept verbatim apart from this docstring.  The oracle tests
require the Laplace kernel to give the same determinant.
"""

from __future__ import annotations

from fractions import Fraction

from semistab.polycore import Poly, PolyMatrix, grlex_key


def poly_exact_div(P: Poly, Q: Poly) -> Poly:
    """Exact division of multivariate polynomials (remainder must vanish)."""
    if Q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if P.is_zero():
        return Poly.zero(P.dim)
    qlead = max(Q.terms, key=grlex_key)
    qc = Q.terms[qlead]
    rem = dict(P.terms)
    out: dict = {}
    while rem:
        lead = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(lead, qlead))
        if any(v < 0 for v in diff):
            raise ArithmeticError("inexact polynomial division")
        coef = rem[lead] / qc
        out[diff] = coef
        for b, cb in Q.terms.items():
            key = tuple(x + y for x, y in zip(diff, b))
            val = rem.get(key, Fraction(0)) - coef * cb
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return Poly(P.dim, out)


def pm_det(X: PolyMatrix) -> Poly:
    """Determinant by fraction-free (Bareiss) elimination; exact."""
    n = X.p
    if n != X.q:
        raise ValueError("determinant of a nonsquare matrix")
    if n == 0:
        return Poly.constant(X.d, 1)
    a = [[X.entries[i][j] for j in range(n)] for i in range(n)]
    sign = 1
    prev = Poly.constant(X.d, 1)
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not a[i][k].is_zero()), None)
        if piv is None:
            return Poly.zero(X.d)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = poly_exact_div(num, prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det.scale(sign)
