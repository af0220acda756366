"""Exact linear algebra: a fraction-free integer simplex with Bland's rule,
and Gauss-Jordan elimination on the same pivot for rank, solve, nullspace,
inverse and det.

Problems are solved in equality standard form

    minimize c.x   subject to   A x = b,  x >= 0

with rational data.  Instances here are small (tens of rows and columns), so
Bland's anti-cycling rule is plenty.  Infeasible problems return a Farkas
certificate y with y.A <= 0 componentwise and y.b > 0, which is what turns
"not a member" into a separating functional.  It is the phase-I dual
c_B B^-1: one exact solve on the final basis B, after phase I has run once,
and it is checked exactly before it is returned.

A second cost c2 is minimized over the optimal face of c in the same
tableau.  At the phase-II optimum, with reduced costs r >= 0, that face is
{x : x_j = 0 where r_j > 0}.  The r row stays in the tableau, out of the
ratio test, under the reduced-cost row of c2, and only columns with r_j = 0
may enter; Bland's rule and the pivots are unchanged.  No second phase I.

Tableau invariant.  Each tableau row is a {column: int} dict of its nonzero
entries (the right-hand side under the key ``RHS``) over its own denominator
d[i] > 0: its rational value is T_i / d[i].  D > 0 is the absolute
determinant of the current basis in the integer start tableau
[S A | I | S b], whose identity basis has D = 1, and T_i D / d[i] is row i of
the dense Edmonds-Bareiss tableau over D (Bareiss, Math. Comp. 22, 1968), so
every entry of it is a minor of the start tableau and an integer.  The
reduced-cost rows are rows like any other.  A pivot on p = T[r][c] first
brings row r, and each row with a nonzero in column c, to D by the rescale
T_i D / d[i]; then every such row i != r becomes (p T_i - T_ic T_r) / D over
p, row r stays over p, and D becomes p.  When p < 0 (a degenerate artificial
pivoted out after phase I) the rewritten rows are negated and sit over -p.
Every other row keeps its integers and its d[i], since its rational value
does not change; it is brought to D only when it is next rewritten, read for
x or used in a cost row.  Bland's rule and the ratio test read stale rows as
they are: a sign, a zero or a ratio within one row does not depend on its
scale.  Each division, in a pivot or a rescale, is exact; it is checked
anyway through the row sums, since floor division would round an inexact
one silently.  In the destabilizer LPs most rows have a zero in the
entering column of a pivot (about 70% on (5,2,3) forms), so most rows are
left alone by it.  ``_gauss_jordan`` pivots the same way on
the rows scaled to integers, with no identity: columns in increasing order,
in column c on the first row at or below the next pivot position with a
nonzero there.  A pivot row ends as d[i] times its row of the reduced row
echelon form, which with its pivot columns is unique for a given row space,
so the results are exactly those of dense Gauss-Jordan over Fractions.  A
row swap and a negative pivot each flip the sign of the determinant, which
is then +-D over the product of the row scales.

Why the scales.  Row i, signed so that b_i >= 0, is scaled to integers by its
own s_i > 0 (the lcm of its denominators), and its artificial keeps a unit
column, which never enters and so is not carried in the tableau.  That is
the positive change of variables a'_i = s_i a_i, under which each tableau
row and column is a positive multiple of the one over Fractions: signs,
ratios and ties, hence Bland's pivot path, are unchanged as long as the
phase-I objective sum_i a_i is kept.  Scaled by L = lcm(s), it gives
artificial k the cost L / s_k.  Phase-II costs are scaled to integers by one
positive factor, ratios are compared by cross-multiplying, and the Farkas
vector is un-scaled as y_k = sign_k s_k y'_k / L.  The per-row denominators
d[i] are a second positive row scale of the same kind, so they too leave the
pivot path alone.  Two shortcuts change results: one global scale with
artificial columns L e_k makes the divisions inexact, and unit artificial
costs with per-row scales change the pivot path.  Callers may pass ints
where their data are integers; ints and Fractions of equal value give the
same scales and the same results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class CertificateError(Exception):
    """An exact certificate failed the check made before it is returned."""


@dataclass
class LPResult:
    status: str                     # "optimal" | "infeasible" | "unbounded"
    x: list | None = None           # primal solution (original variables)
    objective: Fraction | None = None
    farkas: list | None = None      # y with y.A <= 0, y.b > 0 when infeasible


def _rational(v):
    """``v`` as an int or a Fraction (both carry numerator and denominator)."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def integer_scale(vals):
    """(ints, L): the sequence of rationals ``vals`` (ints or Fractions)
    times L, the lcm of their denominators, as ints; L = 1 when empty."""
    L = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (L // v.denominator) for v in vals], L


RHS = -1  # key of the right-hand side in a tableau row


def _rescale(T, d, i, D):
    """Bring row i from its denominator d[i] to D, in place; returns it."""
    row, di = T[i], d[i]
    if di == D:
        return row
    new = {k: v * D // di for k, v in row.items()}
    # floor remainders are >= 0 for d[i] > 0, so the sums agree only if every
    # division is exact
    if di * sum(new.values()) != D * sum(row.values()):
        raise ArithmeticError("inexact row rescale")
    T[i], d[i] = new, D
    return new


def _pivot(T, d, basis, r, c, D):
    """Edmonds-Bareiss pivot on T[r][c]; returns the new denominator.  Only
    the pivot row and the rows with a nonzero in column c are rewritten."""
    prow = _rescale(T, d, r, D)
    p = prow[c]
    psum = sum(prow.values())
    for i, row in enumerate(T):
        if i == r or c not in row:
            continue
        row = _rescale(T, d, i, D)
        f = row[c]
        new = {k: p * v for k, v in row.items()}
        for k, v in prow.items():
            new[k] = new.get(k, 0) - f * v
        new = {k: v // D for k, v in new.items() if v}
        if D * sum(new.values()) != p * sum(row.values()) - f * psum:
            raise ArithmeticError("inexact fraction-free pivot")
        T[i], d[i] = ({k: -v for k, v in new.items()} if p < 0 else new), abs(p)
    basis[r] = c
    if p < 0:
        T[r] = {k: -v for k, v in prow.items()}
    d[r] = abs(p)
    return abs(p)


def _simplex_core(T, d, basis, D, n, face=False):
    """Minimize over the tableau, whose last row is the reduced-cost row;
    columns below n may enter.  With ``face`` the row above it holds the
    reduced costs of an earlier optimum: it takes no part in the ratio test,
    and only its zero columns may enter.  Returns ('optimal' | 'unbounded', D)."""
    z = len(T) - 1
    while True:
        zrow, frow = T[z], T[z - 1] if face else {}
        enter = min((j for j, v in zrow.items()
                     if v < 0 and 0 <= j < n and not frow.get(j)), default=-1)  # Bland
        if enter < 0:
            return "optimal", D
        leave = -1
        for i in range(z - face):
            row = T[i]
            a = row.get(enter, 0)
            if a <= 0:
                continue
            b = row.get(RHS, 0)
            if leave >= 0:
                # ratios b / a against best_b / best_a, both a > 0; each
                # ratio is one row's, so it does not depend on d[i]
                lhs, rhs = b * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, best_b, best_a = i, b, a
        if leave < 0:
            return "unbounded", D
        D = _pivot(T, d, basis, leave, enter, D)


def _cost_row(T, d, cost, basis_cost, D):
    """D times the reduced costs of the integer ``cost`` ({column: int}),
    with ``basis_cost`` the cost of the basic variable of each row of T."""
    z = {j: D * v for j, v in cost.items()}
    for i, k in enumerate(basis_cost):
        if k:
            for j, v in _rescale(T, d, i, D).items():
                z[j] = z.get(j, 0) - k * v
    return {j: v for j, v in z.items() if v}


def _objective_row(T, d, c, basis, D):
    """Reduced-cost row of the rational cost ``c``, scaled to integers."""
    cost, _ = integer_scale(c)
    return _cost_row(T, d, {j: v for j, v in enumerate(cost) if v},
                     [cost[k] if k < len(c) else 0 for k in basis], D)


def _farkas_vector(rows, basis, n, sign, s, L):
    """Phase-I dual y = c_B B^-1, un-scaled and in the caller's row signs:
    one exact solve of B^T y' = c_B on the final basis B of the scaled rows,
    where artificial k is the unit column e_k at cost L / s_k."""
    cols = [{j - n: 1} if j >= n else {i: row[j] for i, row in enumerate(rows) if j in row}
            for j in basis]
    y = exact_solve(cols, [L // s[j - n] if j >= n else 0 for j in basis], len(s))
    if y is None:
        raise CertificateError("singular phase-I basis")
    return [sign[k] * sk * yk / L for k, (sk, yk) in enumerate(zip(s, y))]


def solve_eq_lp(A, b, c, maximize: bool = False, c2=None) -> LPResult:
    """Solve min/max c.x subject to A x = b, x >= 0, all data rational; with
    ``c2``, x also minimizes c2.x over the optimal face (``objective`` is c.x)."""
    m = len(A)
    n = len(A[0]) if m else 0
    A0 = [[_rational(v) for v in row] for row in A]
    b0 = [_rational(v) for v in b]
    c = [_rational(v) for v in c]
    if maximize:
        c = [-v for v in c]

    # rows signed to b >= 0, scaled to integers and kept sparse
    sign = [-1 if v < 0 else 1 for v in b0]
    s, rows = [], []
    for i in range(m):
        ints, si = integer_scale([*A0[i], b0[i]])
        row = {j: sign[i] * v for j, v in enumerate(ints[:n]) if v}
        if ints[n]:
            row[RHS] = sign[i] * ints[n]
        rows.append(row)
        s.append(si)

    # phase I: drive artificials to zero; artificial k costs lcm(s) / s_k
    L = math.lcm(*s)
    T, d, basis = [dict(row) for row in rows], [1] * m, [n + i for i in range(m)]
    T.append(_cost_row(T, d, {}, [L // si for si in s], 1))
    d.append(1)
    _, D = _simplex_core(T, d, basis, 1, n)
    del T[-1], d[-1]
    if any(T[i].get(RHS, 0) > 0 for i, j in enumerate(basis) if j >= n):
        y = _farkas_vector(rows, basis, n, sign, s, L)
        yA = [sum(y[i] * A0[i][j] for i in range(m)) for j in range(n)]
        yb = sum(y[i] * b0[i] for i in range(m))
        if not (yb > 0 and all(v <= 0 for v in yA)):
            raise CertificateError("bad Farkas certificate")
        return LPResult(status="infeasible", farkas=y)

    # pivot lingering artificials out of the basis (degenerate rows)
    for i in range(m):
        if basis[i] >= n:
            col = min((j for j in T[i] if 0 <= j < n), default=None)
            if col is not None:
                D = _pivot(T, d, basis, i, col, D)

    # phase II over the original columns, then c2 on the optimal face
    T.append(_objective_row(T, d, c, basis, D))
    d.append(D)
    status, D = _simplex_core(T, d, basis, D, n)
    if status == "optimal" and c2 is not None:
        T.append(_objective_row(T, d, [_rational(v) for v in c2], basis, D))
        d.append(D)
        status, D = _simplex_core(T, d, basis, D, n, face=True)
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(_rescale(T, d, i, D).get(RHS, 0), D)
    obj = sum(ci * xi for ci, xi in zip(c, x))
    if maximize:
        obj = -obj
    return LPResult(status="optimal", x=x, objective=obj)


def feasible_point(A, b) -> LPResult:
    """Find x >= 0 with A x = b, or a Farkas separator."""
    n = len(A[0]) if A else 0
    return solve_eq_lp(A, b, [Fraction(0)] * n)


def _gauss_jordan(rows):
    """Gauss-Jordan by Edmonds-Bareiss pivots on rows given as sequences or
    ``{column: value}`` mappings of rationals.

    Returns (rows, pivot columns, (num, den)): one integer row per pivot, a
    positive multiple of that row of the reduced form, and det = num / den
    for square full-rank input.
    """
    T, den = [], 1
    for row in rows:
        vals = {j: v for j, v in (row.items() if isinstance(row, dict)
                                  else enumerate(row)) if v}
        ints, s = integer_scale(vals.values())
        T.append(dict(zip(vals, ints)))
        den *= s
    m = len(T)
    d, basis, D, sign, r = [1] * m, [0] * m, 1, 1, 0
    for c in sorted({j for row in T for j in row}):
        if r == m:
            break
        i = next((i for i in range(r, m) if c in T[i]), None)
        if i is None:
            continue
        if i != r:
            T[r], T[i], d[r], d[i] = T[i], T[r], d[i], d[r]
            sign = -sign
        if T[r][c] < 0:
            sign = -sign
        D = _pivot(T, d, basis, r, c, D)
        r += 1
    return T[:r], basis[:r], (sign * D, den)


def exact_rref(rows):
    """Reduced row echelon form: (nonzero rows as ``{column: Fraction}``
    mappings, pivot columns)."""
    a, pivots, _ = _gauss_jordan(rows)
    return ([{k: Fraction(v, row[c]) for k, v in row.items()}
             for row, c in zip(a, pivots)], pivots)


def exact_rank(rows) -> int:
    return len(_gauss_jordan(rows)[1])


def exact_solve(rows, b, n):
    """One solution x of rows . x = b in n unknowns, free variables zero;
    None when the system is inconsistent."""
    aug = [{**(row if isinstance(row, dict) else dict(enumerate(row))), n: v}
           for row, v in zip(rows, b)]
    a, pivots, _ = _gauss_jordan(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(a, pivots):
        x[c] = Fraction(row.get(n, 0), row[c])
    return x


def exact_nullspace(rows, n):
    """(basis, pivot columns): one kernel vector per free column f of the
    reduced form, e_f minus that column's entries on the pivot columns."""
    a, pivots, _ = _gauss_jordan(rows)
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, c in zip(a, pivots):
            v[c] = -Fraction(row.get(f, 0), row[c])
        basis.append(v)
    return basis, pivots


def echelon_frame(M):
    """(E, pivot columns): the invertible E with E M the reduced row echelon
    form of the rational matrix M, read off the reduced form of [M | I]."""
    n = len(M)
    w = len(M[0]) if n else 0
    a, pivots, _ = _gauss_jordan(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(M)])
    return ([[Fraction(row.get(w + j, 0), row[c]) for j in range(n)]
             for row, c in zip(a, pivots)], [c for c in pivots if c < w])


def exact_inverse(M):
    """Inverse of a square rational matrix, the frame of a full-rank M;
    ValueError when singular or not square."""
    if any(len(row) != len(M) for row in M):
        raise ValueError("inverse of a nonsquare matrix")
    E, pivots = echelon_frame(M)
    if pivots != list(range(len(M))):
        raise ValueError("singular matrix")
    return E


def exact_det(M) -> Fraction:
    """Determinant of a square rational matrix; ValueError when not square."""
    if any(len(row) != len(M) for row in M):
        raise ValueError("determinant of a nonsquare matrix")
    _, pivots, (num, den) = _gauss_jordan(M)
    return Fraction(num, den) if len(pivots) == len(M) else Fraction(0)
