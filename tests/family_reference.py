"""Test-only reference: the balanced moment families and their verifier as
they were before both families came from one builder.

``moment_family_type1`` and ``moment_family_type2`` were two parallel
builders; the second took its derivatives with a hand-written ``dmono``.
``verify_radon_decomposition`` also accepted P entries in the z variables
alone, and found each violation by a ``z_order`` pre-check followed by a
``min`` over the defect's terms.  The code is kept as it was, apart from
this docstring and the imports.  The oracle tests require identical
6-tuples and identical ``RadonVerifyReport`` JSON.
"""

from __future__ import annotations

from fractions import Fraction

from semistab.blockdecomp import (
    degrees_monotone,
    inflate_s,
    inflate_z,
    reduced_product,
    unimodular,
    z_degree,
    z_order,
)
from semistab.polycore import Poly, PolyMatrix, grlex_key, mi_factorial, mi_order
from semistab.radon import RadonVerifyReport, balanced_check


def _sorted_alphas(alphas):
    return sorted((tuple(a) for a in alphas), key=grlex_key)


def moment_family_type1(alphas, k: int):
    chk = balanced_check(alphas, 1, k=k)
    if not chk.ok:
        raise ValueError(f"not balanced of type 1: {chk.reason}")
    alphas = _sorted_alphas(alphas)
    N = len(alphas)
    d = len(alphas[0])
    rows = N * k
    cols = N * k + k
    fac = lambda a: Fraction(1, mi_factorial(a))

    def mono(a, coef):
        return Poly(d, {tuple(a): coef})

    zero = Poly.zero(d)
    one = Poly.constant(d, 1)
    M = [[zero for _ in range(cols)] for _ in range(rows)]
    B = [[zero for _ in range(cols)] for _ in range(cols)]
    A = [[zero for _ in range(rows)] for _ in range(rows)]
    # right block in the z variables alone, for the sparse criterion
    right = [[zero for _ in range(k)] for _ in range(rows)]
    for r in range(rows):
        M[r][r] = one
    for c in range(cols):
        B[c][c] = one
    for i, a in enumerate(alphas):
        for m in range(k):
            r = i * k + m
            M[r][N * k + m] = mono(a, fac(a))
            B[r][N * k + m] = right[r][m] = mono(a, -fac(a))
    for i, a in enumerate(alphas):
        for i2, a2 in enumerate(alphas):
            diff = tuple(x - y for x, y in zip(a, a2))
            if any(v < 0 for v in diff):
                continue
            coef = Fraction((-1) ** sum(diff), mi_factorial(diff))
            for m in range(k):
                A[i * k + m][i2 * k + m] = mono(diff, coef)
    return (PolyMatrix(M), PolyMatrix(A), PolyMatrix(B), _degree_matched(A, right, d),
            PolyMatrix(right), chk.sigma)


def _degree_matched(A, right, d: int) -> PolyMatrix:
    return PolyMatrix([[inflate_s(e, d) for e in a_row]
                       + [inflate_z(e, d) for e in r_row]
                       for a_row, r_row in zip(A, right)])


def moment_family_type2(alphas):
    d = len(next(iter(alphas)))
    chk = balanced_check(alphas, 2, d=d)
    if not chk.ok:
        raise ValueError(f"not balanced of type 2: {chk.reason}")
    alphas = _sorted_alphas(alphas)
    N = len(alphas)
    cols = N + d
    zero = Poly.zero(d)
    one = Poly.constant(d, 1)

    def dmono(a, l, coef):
        # coef * d/ds_l of s^a / a!
        if a[l] == 0:
            return Poly.zero(d)
        a2 = list(a)
        a2[l] -= 1
        return Poly(d, {tuple(a2): coef * Fraction(1, mi_factorial(tuple(a2)))})

    M = [[zero for _ in range(cols)] for _ in range(N)]
    B = [[zero for _ in range(cols)] for _ in range(cols)]
    A = [[zero for _ in range(N)] for _ in range(N)]
    right = [[zero for _ in range(d)] for _ in range(N)]
    for r in range(N):
        M[r][r] = one
    for c in range(cols):
        B[c][c] = one
    for i, a in enumerate(alphas):
        sign = Fraction((-1) ** (mi_order(a) - 1))
        for l in range(d):
            M[i][N + l] = dmono(a, l, sign)
            B[i][N + l] = dmono(a, l, -sign)
            # reduced value: -q(t-s) = (-1)^{|a|} d_l z^a / a! in z = t - s
            right[i][l] = dmono(a, l, Fraction((-1) ** mi_order(a)))
    for i, a in enumerate(alphas):
        for i2, a2 in enumerate(alphas):
            diff = tuple(x - y for x, y in zip(a, a2))
            if any(v < 0 for v in diff):
                continue
            coef = Fraction(1, mi_factorial(diff))
            A[i][i2] = Poly(d, {diff: coef})
    return (PolyMatrix(M), PolyMatrix(A), PolyMatrix(B), _degree_matched(A, right, d),
            PolyMatrix(right), chk.sigma)


def verify_radon_decomposition(M: PolyMatrix, A: PolyMatrix, B: PolyMatrix,
                               P: PolyMatrix) -> RadonVerifyReport:
    d = M.d
    det_ok = unimodular(d, A, B)
    R = reduced_product(A, M, B)

    # P with z in the second block and s-coefficients in the first:
    # a plain d-variable entry is all-z (degree-matched part)
    degs = [[None] * M.q for _ in range(M.p)]  # None: zero entry, no constraint
    viol = []
    for i in range(M.p):
        for j in range(M.q):
            e = P.entries[i][j]
            if e.dim == d:
                E = inflate_z(e, d)
            elif e.dim == 2 * d:
                E = e
            else:
                raise ValueError("P entries must be in z or (s, z) variables")
            if not E.is_zero():
                degs[i][j] = max(z_degree(E, d), 0)
            defect = R.entries[i][j] - E
            if defect.is_zero():
                continue
            dij = degs[i][j] if degs[i][j] is not None else 0
            if z_order(defect, d) <= dij:
                bad = min((a for a in defect.terms if sum(a[d:]) <= dij),
                          key=lambda a: sum(a[d:]))
                viol.append(((i, j), bad[d:]))
    monotone = degrees_monotone(degs)
    ok = det_ok and monotone and not viol
    return RadonVerifyReport(ok, det_ok, monotone, viol)
