"""Test-only reference: the dense Fraction simplex with Bland's rule.

This is the tableau ``semistab.lp`` used before its fraction-free integer
kernel, kept verbatim apart from this docstring and the Farkas check (a
raise instead of an ``assert``).  The oracle tests compare the two on status,
``x``, objective and Farkas vector, which must all be equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class LPResult:
    status: str                     # "optimal" | "infeasible" | "unbounded"
    x: list | None = None           # primal solution (original variables)
    objective: Fraction | None = None
    farkas: list | None = None      # y with y.A <= 0, y.b > 0 when infeasible


def _pivot(T, basis, row, col):
    piv = T[row][col]
    inv = Fraction(1) / piv
    T[row] = [v * inv for v in T[row]]
    for i, r in enumerate(T):
        if i != row and r[col] != 0:
            f = r[col]
            T[i] = [a - f * b for a, b in zip(r, T[row])]
    basis[row] = col


def _simplex_core(T, basis, cost, enterable):
    """Minimize cost over the tableau; returns 'optimal' or 'unbounded'.

    Reduced costs are recomputed from scratch each round; fine at this
    scale and exact arithmetic makes it drift-free.
    """
    m = len(T)
    ncols = len(cost)
    while True:
        yrow = [Fraction(0)] * ncols
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                for j in range(ncols):
                    if T[i][j]:
                        yrow[j] += cb * T[i][j]
        enter = -1
        for j in enterable:
            if cost[j] - yrow[j] < 0:
                enter = j
                break  # Bland: first improving index
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][ncols] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)


def solve_eq_lp(A, b, c, maximize: bool = False) -> LPResult:
    """Solve min/max c.x subject to A x = b, x >= 0, all data rational."""
    m = len(A)
    n = len(A[0]) if m else 0
    A0 = [[Fraction(v) for v in row] for row in A]
    b0 = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    if maximize:
        c = [-v for v in c]

    # normalize to b >= 0, remembering the flips for the Farkas certificate
    sign = [1] * m
    A = [list(row) for row in A0]
    b = list(b0)
    for i in range(m):
        if b[i] < 0:
            sign[i] = -1
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    ncols = n + m  # originals + artificials
    T = []
    for i in range(m):
        row = A[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        row.append(b[i])
        T.append(row)
    basis = [n + i for i in range(m)]

    # phase I: drive artificials to zero
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    _simplex_core(T, basis, cost1, list(range(n)))
    w = sum(T[i][ncols] for i in range(m) if basis[i] >= n)
    if w > 0:
        # dual vector y = c_B B^{-1}; B^{-1} occupies the artificial columns
        y = []
        for k in range(m):
            yk = Fraction(0)
            for i in range(m):
                if basis[i] >= n:
                    yk += T[i][n + k]
            y.append(yk)
        y = [sign[i] * y[i] for i in range(m)]  # back to caller's row signs
        yA = [sum(y[i] * A0[i][j] for i in range(m)) for j in range(n)]
        yb = sum(y[i] * b0[i] for i in range(m))
        if not (yb > 0 and all(v <= 0 for v in yA)):
            raise ArithmeticError("bad Farkas certificate")
        return LPResult(status="infeasible", farkas=y)

    # pivot lingering artificials out of the basis (degenerate rows)
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                _pivot(T, basis, i, col)

    # phase II over the original columns only
    cost2 = c + [Fraction(0)] * m
    status = _simplex_core(T, basis, cost2, list(range(n)))
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][ncols]
    obj = sum(ci * xi for ci, xi in zip(c, x))
    if maximize:
        obj = -obj
    return LPResult(status="optimal", x=x, objective=obj)


def feasible_point(A, b) -> LPResult:
    """Find x >= 0 with A x = b, or a Farkas separator."""
    n = len(A[0]) if A else 0
    return solve_eq_lp(A, b, [Fraction(0)] * n)
