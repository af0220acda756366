"""Test-only reference: the float group action on dict-of-terms polynomials.

This is how ``semistab.polycore.act_group`` acted on float operands before
the dense kernel, together with the derivative-pairing matrices
``semistab.gitnorm._foc_matrices`` computed on that representation.  The
code is kept as it was, apart from this docstring, ``act_group`` taking the
matrices (A, B, C) in place of a group element, the name ``foc_matrices``,
the method ``Poly.pow`` kept here as :func:`_pow`, and
``substitute_linear`` no longer checking that C is ``P.dim`` x ``P.dim``.
Every ``Poly`` built on the way prunes its coefficients at 1e-14 of its
largest one, so intermediate products are pruned as well as the result.
The oracle tests compare the dense kernel with it entry by entry.
"""

from __future__ import annotations

import math

import numpy as np

from semistab.polycore import (
    Poly,
    PolyMatrix,
    _as_matrix,
    matrix_is_exact,
    mi_factorial,
)


def _pow(P: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative power")
    result = Poly.constant(P.dim, 1)
    for _ in range(n):
        result = result * P
    return result


def _substitute_forms(P: Poly, forms: list[Poly]) -> Poly:
    """Substitute variable k by forms[k]; shared power cache per call."""
    if len(forms) != P.dim:
        raise ValueError("need one form per variable")
    dim_out = forms[0].dim if forms else P.dim
    cache: list[dict[int, Poly]] = [dict() for _ in forms]

    def power(k: int, e: int) -> Poly:
        got = cache[k].get(e)
        if got is None:
            got = _pow(forms[k], e)
            cache[k][e] = got
        return got

    total = Poly.zero(dim_out)
    for a, c in P.terms.items():
        mono = Poly.constant(dim_out, 1)
        for k, e in enumerate(a):
            if e:
                mono = mono * power(k, e)
        total = total + mono.scale(c)
    return total


def substitute_linear(P: Poly, C) -> Poly:
    """Return z -> P(C^T z), expanded and recollected."""
    C = _as_matrix(C)
    exact = matrix_is_exact(C)
    d = P.dim
    forms = []
    for k in range(d):
        # (C^T z)_k = sum_l C[l][k] z_l
        terms = {}
        for l in range(d):
            c = C[l][k]
            if c != 0:
                key = tuple(1 if j == l else 0 for j in range(d))
                terms[key] = c
        forms.append(Poly(d, terms, exact=exact))
    return _substitute_forms(P, forms)


def act_group(P: PolyMatrix, A, B, C) -> PolyMatrix:
    """Entry (k, l) is sum_{i,j} A[k][i] B[l][j] P_ij(C^T z)."""
    A, B, C = _as_matrix(A), _as_matrix(B), _as_matrix(C)
    if (len(A) != P.p) or (len(B) != P.q) or (len(C) != P.d):
        raise ValueError("group element shape does not match matrix")
    sub = [[substitute_linear(P.entries[i][j], C) for j in range(P.q)]
           for i in range(P.p)]
    exact_mix = matrix_is_exact(A) and matrix_is_exact(B)
    rows = []
    for k in range(P.p):
        row = []
        for l in range(P.q):
            acc = Poly.zero(P.d)
            for i in range(P.p):
                a = A[k][i]
                if a == 0:
                    continue
                for j in range(P.q):
                    b = B[l][j]
                    if b == 0:
                        continue
                    coef = a * b if exact_mix else float(a) * float(b)
                    acc = acc + sub[i][j].scale(coef)
            row.append(acc)
        rows.append(row)
    return PolyMatrix(rows, degree_cap=max(P.degree_cap, 0))


def foc_matrices(P: PolyMatrix, sigma: float):
    """Row-Gram, column-Gram and derivative-pairing residual matrices."""
    p, q, d = P.p, P.q, P.d
    tc = {}
    for i in range(p):
        for j in range(q):
            for a, c in P.entries[i][j].terms.items():
                tc[(i, j, a)] = float(c) * mi_factorial(a)
    norm2 = sum(v * v / mi_factorial(a) for (_, _, a), v in tc.items())
    G1 = np.zeros((p, p))
    G2 = np.zeros((q, q))
    G3 = np.zeros((d, d))
    for (i, j, a), v in tc.items():
        fa = mi_factorial(a)
        for i2 in range(p):
            v2 = tc.get((i2, j, a))
            if v2 is not None:
                G1[i, i2] += v * v2 / fa
        for j2 in range(q):
            v2 = tc.get((i, j2, a))
            if v2 is not None:
                G2[j, j2] += v * v2 / fa
        for k1 in range(d):
            if a[k1] == 0:
                continue
            for k2 in range(d):
                a2 = list(a)
                a2[k1] -= 1
                a2[k2] += 1
                v2 = tc.get((i, j, tuple(a2)))
                if v2 is not None:
                    fa2 = mi_factorial(tuple(a2))
                    G3[k1, k2] += v * v2 * math.sqrt(a[k1] * a2[k2] / (fa * fa2))
    R1 = G1 - np.eye(p) * (norm2 / p)
    R2 = G2 - np.eye(q) * (norm2 / q)
    R3 = G3 - np.eye(d) * (sigma * norm2)
    return R1, R2, R3, norm2
