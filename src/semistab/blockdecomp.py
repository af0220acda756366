"""Block decompositions of polynomial incidence matrices.

An incidence matrix M(s) (p x q, polynomial entries in s in R^d, generic
rank p) is jointly row/column reduced: columns may be combined with
polynomial coefficients in t, rows with coefficients in s, both with
determinant-one bookkeeping matrices A(s) and B(t).  The reduced matrix
R(s, z) = A(s) M(s) B(s + z), re-expanded in z := t - s, vanishes on the
diagonal z = 0 to orders that are read off blockwise as the formal degree
matrix D.

Internally bivariate objects live as polynomials in 2d variables: the first
d are s, the last d are z.  This module owns that layout: the embeddings
:func:`inflate_s`, :func:`inflate_z` and :func:`inflate_t`, the
specialisation :func:`specialize_s` at a point s = t0, the translation
:func:`diagonal_shift` built from the two, the product
:func:`reduced_product`, the determinant-one check :func:`unimodular`, the
degree-grid check :func:`degrees_monotone` and the block order
:func:`least_z_order`; :mod:`semistab.radon` verifies its moment families
with the same functions.  All elimination decisions are exact.

Two elimination strategies are tried in order:

* flow: when every s-partial of every column is a constant linear
  combination of columns (nilpotently), the whole column reduction is the
  polynomial flow B(t) = prod_k exp(-t_k G_k);
* greedy: order-raising column/row operations found by solving exact linear
  systems on diagonal jets.

Both are followed by greedy sweeps, so the flow case also gets its constant
regrouping.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .lp import exact_rank, exact_solve
from .polycore import (
    Poly,
    PolyMatrix,
    _is_exact_scalar,
    fraction_to_json,
    grlex_key,
    is_int,
    partial_derivative,
    polymatrix_from_json,
    polymatrix_to_json,
)


# -- bivariate helpers ------------------------------------------------------------


def inflate_s(P: Poly, d: int) -> Poly:
    """Poly in s (d vars) -> poly in (s, z) (2d vars), constant in z."""
    return Poly(2 * d, {a + (0,) * d: c for a, c in P.terms.items()}, exact=P.exact)


def inflate_z(P: Poly, d: int) -> Poly:
    """Poly in z (d vars) -> poly in (s, z) (2d vars), constant in s."""
    return Poly(2 * d, {(0,) * d + a: c for a, c in P.terms.items()}, exact=P.exact)


def inflate_t(P: Poly, d: int) -> Poly:
    """Poly in t (d vars) -> poly in (s, z) via t = s + z."""
    out = Poly(2 * d, {}, exact=P.exact)
    for a, c in P.terms.items():
        mono = Poly.constant(2 * d, c)
        for k, e in enumerate(a):
            if e:
                sk = tuple(1 if j == k else 0 for j in range(2 * d))
                zk = tuple(1 if j == d + k else 0 for j in range(2 * d))
                form = Poly(2 * d, {sk: 1, zk: 1})
                for _ in range(e):
                    mono = mono * form
        out = out + mono
    return out


def z_order(P: Poly, d: int) -> int:
    """Least total z-degree with a nonzero coefficient; -1 for the zero poly."""
    if P.is_zero():
        return -1
    return min(sum(a[d:]) for a in P.terms)


def z_degree(P: Poly, d: int) -> int:
    if P.is_zero():
        return -1
    return max(sum(a[d:]) for a in P.terms)


def least_z_order(R: PolyMatrix, rows, cols):
    """Least z-order over the nonzero entries R[r][c], r in rows and c in
    cols, of a bivariate matrix; math.inf when all of them are zero."""
    d = R.d // 2
    return min((z_order(R.entries[r][c], d) for r in rows for c in cols
                if not R.entries[r][c].is_zero()), default=math.inf)


def z_homogeneous_part(P: Poly, d: int, deg: int) -> Poly:
    return Poly(2 * d,
                {a: c for a, c in P.terms.items() if sum(a[d:]) == deg},
                exact=P.exact)


def specialize_s(P: Poly, t0) -> Poly:
    """Substitute t0 for the first d = len(t0) variables (s in a bivariate
    poly); the result is a polynomial in the other P.dim - d variables (the
    z block), exact when P and t0 are."""
    d = len(t0)
    out: dict = {}
    for a, c in P.terms.items():
        val = c
        for k in range(d):
            if a[k]:
                val = val * t0[k] ** a[k]
        if val:
            key = a[d:]
            out[key] = out.get(key, 0) + val
    exact = P.exact and all(_is_exact_scalar(x) for x in t0)
    return Poly(P.dim - d, out, exact=exact)


def diagonal_shift(P: Poly, s0) -> Poly:
    """Return z -> P(s0 + z): t = s + z, then s = s0; exact when P and s0 are."""
    if len(s0) != P.dim:
        raise ValueError("dimension mismatch")
    return specialize_s(inflate_t(P, P.dim), s0)


def pm_mul(X: PolyMatrix, Y: PolyMatrix) -> PolyMatrix:
    if X.q != Y.p:
        raise ValueError("shape mismatch in polynomial matrix product")
    rows = []
    for i in range(X.p):
        row = []
        for j in range(Y.q):
            acc = Poly.zero(X.d)
            for k in range(X.q):
                if not X.entries[i][k].is_zero() and not Y.entries[k][j].is_zero():
                    acc = acc + X.entries[i][k] * Y.entries[k][j]
            row.append(acc)
        rows.append(row)
    return PolyMatrix(rows)


def reduced_product(A: PolyMatrix, M: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """A(s) M(s) B(s + z) as a bivariate matrix: A and M in s, B in t."""
    d = M.d
    lift = lambda X, f: PolyMatrix([[f(e, d) for e in row] for row in X.entries])
    return pm_mul(pm_mul(lift(A, inflate_s), lift(M, inflate_s)), lift(B, inflate_t))


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


def unimodular(d: int, *Xs: PolyMatrix) -> bool:
    """Whether each X (polynomials in d variables) has determinant 1."""
    return all(pm_det(X) == Poly.constant(d, 1) for X in Xs)


def degrees_monotone(grid) -> bool:
    """Whether a grid of degrees is nondecreasing along every row and down
    every column; a None entry constrains nothing."""
    le = lambda a, b: a is None or b is None or a <= b
    return (all(le(a, b) for row in grid for a, b in zip(row, row[1:]))
            and all(le(a, b) for up, down in zip(grid, grid[1:])
                    for a, b in zip(up, down)))


def has_generic_rank_p(M: PolyMatrix) -> bool:
    """Whether the exact incidence matrix M has rank p at one of a couple of
    random rational points.  The points come from the standard library's
    generator (seed 5), so that the check does not load ``numpy.random``."""
    if not M.exact:
        raise ValueError("incidence matrices must be exact")
    rng = random.Random(5)
    for _ in range(2):
        pt = [Fraction(rng.randint(-99, 99), 101) for _ in range(M.d)]
        rows = [[specialize_s(e, pt).coeff(()) for e in row] for row in M.entries]
        if exact_rank(rows) == M.p:
            return True
    return False


# -- data types --------------------------------------------------------------------


@dataclass
class Tile:
    """An interval product of group indices with its degeneracy parameter."""

    I: tuple
    J: tuple
    sigma: Fraction = Fraction(0)

    def to_json(self):
        return {"I": list(self.I), "J": list(self.J), "sigma": fraction_to_json(self.sigma)}


def group_offsets(sizes) -> list:
    """Prefix offsets of consecutive groups: group i spans
    range(offsets[i], offsets[i + 1])."""
    return [0, *itertools.accumulate(sizes)]


@dataclass
class BlockDecomposition:
    row_groups: list          # sizes p_0 .. p_{m*}
    col_groups: list          # sizes q_0 .. q_m
    D: list                   # (m*+1) x (m+1) formal degrees
    A: PolyMatrix             # p x p in s, det == 1
    B: PolyMatrix             # q x q in t, det == 1
    zero_blocks: set = field(default_factory=set)

    @property
    def p(self):
        return sum(self.row_groups)

    @property
    def q(self):
        return sum(self.col_groups)

    @property
    def d(self):
        return self.A.d

    def degree(self, i: int, j: int):
        """Formal degree with zero blocks reading as +infinity."""
        if (i, j) in self.zero_blocks:
            return math.inf
        return self.D[i][j]

    def to_json(self) -> dict:
        return {
            "row_groups": list(self.row_groups),
            "col_groups": list(self.col_groups),
            "D": [list(row) for row in self.D],
            "zero_blocks": sorted(list(b) for b in self.zero_blocks),
            "A": polymatrix_to_json(self.A),
            "B": polymatrix_to_json(self.B),
        }

    @staticmethod
    def from_json(obj: dict) -> "BlockDecomposition":
        """Parse and check the shapes and the integer fields; KeyError names
        a missing field and ValueError a field of the wrong shape or value."""
        dec = BlockDecomposition(
            row_groups=list(obj["row_groups"]),
            col_groups=list(obj["col_groups"]),
            D=[list(r) for r in obj["D"]],
            A=polymatrix_from_json(obj["A"]),
            B=polymatrix_from_json(obj["B"]),
            zero_blocks={tuple(b) for b in obj.get("zero_blocks", [])},
        )
        sizes = dec.row_groups + dec.col_groups
        if not all(is_int(g) and g > 0 for g in sizes):
            raise ValueError("group sizes must be positive integers")
        nI, nJ = len(dec.row_groups), len(dec.col_groups)
        if len(dec.D) != nI or any(len(r) != nJ for r in dec.D):
            raise ValueError(f"D is not {nI} x {nJ}, one degree per block")
        if not all(is_int(x) and x >= 0 for row in dec.D for x in row):
            raise ValueError("D entries must be nonnegative integers")
        if (dec.A.p, dec.A.q, dec.B.p, dec.B.q) != (dec.p, dec.p, dec.q, dec.q):
            raise ValueError(f"A and B are not {dec.p} x {dec.p} and "
                             f"{dec.q} x {dec.q}, the sizes of the groups")
        if dec.A.d != dec.B.d:
            raise ValueError(f"A is in {dec.A.d} variables and B in {dec.B.d}")
        return dec


# -- flow elimination ----------------------------------------------------------------


def _columns_as_vectors(M: PolyMatrix):
    return [[M.entries[i][j] for i in range(M.p)] for j in range(M.q)]


def _solve_constant_closure(M: PolyMatrix):
    """Find constant G_k with d/ds_k M = M G_k for each k, preferring to
    express derivatives through columns of strictly lower degree (that choice
    makes the generators nilpotent when it exists).  Returns None if some
    derivative is not a constant combination of the columns, or if some
    generator is not nilpotent."""
    p, q, d = M.p, M.q, M.d
    cols = _columns_as_vectors(M)
    degs = [max((e.degree() for e in col), default=-1) for col in cols]
    monos = {a for col in cols for e in col for a in e.terms}
    # include first-derivative monomials so an unclosed system shows up as
    # infeasible rather than as a missing basis element
    for a in list(monos):
        for k in range(d):
            if a[k] > 0:
                monos.add(tuple(v - 1 if m == k else v for m, v in enumerate(a)))
    monomials = sorted(monos, key=grlex_key)
    mon_index = {a: ix for ix, a in enumerate(monomials)}

    def col_vector(col):
        return {i * len(monomials) + mon_index[a]: c
                for i, e in enumerate(col) for a, c in e.terms.items()}

    col_vecs = [col_vector(c) for c in cols]
    generators = []
    for k in range(d):
        ek = tuple(1 if j == k else 0 for j in range(d))
        G = [[Fraction(0)] * q for _ in range(q)]
        for j in range(q):
            dcol = [partial_derivative(e, ek) for e in cols[j]]
            if all(e.is_zero() for e in dcol):
                continue
            target = col_vector(dcol)
            # candidate pivots: strictly lower degree first, then everything
            lower = [j2 for j2 in range(q) if degs[j2] < degs[j]]
            for use in (lower, [j2 for j2 in range(q) if j2 != j]):
                sol = _solve_linear_combo([col_vecs[j2] for j2 in use], target)
                if sol is not None:
                    break
            else:
                return None
            for coef, j2 in zip(sol, use):
                G[j2][j] = coef
        generators.append(G)
    # nilpotency (G^q = 0): required so the flow stays polynomial
    for G in generators:
        power = G
        for _ in range(M.q):
            if not any(v for row in power for v in row):
                break
            power = _mat_mul_frac(power, G)
        else:
            return None
    return generators


def _solve_linear_combo(vectors, target):
    """Coefficients x with sum x_i vectors_i = target, exact; None if none.
    Vectors and target are sparse ``{index: value}`` mappings."""
    keys = set(target).union(*vectors)
    rows = [{j: v[i] for j, v in enumerate(vectors) if i in v} for i in keys]
    return exact_solve(rows, [target.get(i, 0) for i in keys], len(vectors))


def _mat_mul_frac(X, Y):
    n, k, m = len(X), len(Y), len(Y[0])
    return [[sum(X[i][l] * Y[l][j] for l in range(k)) for j in range(m)]
            for i in range(n)]


def _exp_flow(generators, d: int, q: int) -> PolyMatrix:
    """B(t) = prod_k exp(-t_k G_k); polynomial because each G_k is nilpotent."""
    B = PolyMatrix.identity(q, d)
    for k, G in enumerate(generators):
        ek = tuple(1 if j == k else 0 for j in range(d))
        term = [[Fraction(1 if i == j else 0) for j in range(q)] for i in range(q)]
        entries = PolyMatrix.identity(q, d).entries
        power = term
        fact = 1
        for n in range(1, q + 1):
            power = _mat_mul_frac(power, G)
            fact *= n
            if all(v == 0 for row in power for v in row):
                break
            mono = tuple(n * e for e in ek)
            for i in range(q):
                for j in range(q):
                    c = power[i][j] * Fraction((-1) ** n, fact)
                    if c:
                        entries[i][j] = entries[i][j] + Poly(d, {mono: c})
        E = PolyMatrix(entries)
        B = pm_mul(B, E)
    return B


# -- greedy elimination ----------------------------------------------------------------


def _jet(entries, m: int, d: int):
    """Order-m diagonal jet of labelled entries (a column labelled by row,
    or a row by column): {(label, z-beta): s-poly coeff}."""
    jet = {}
    for label, e in entries:
        for a, c in z_homogeneous_part(e, d, m).terms.items():
            spoly = jet.setdefault((label, a[d:]), {})
            spoly[a[:d]] = spoly.get(a[:d], 0) + c
    return jet


def _solve_jet_kill(target_jet, pivot_jets, d: int, degbound: int):
    """Polynomial coefficients f (one per pivot, degree <= degbound in s)
    with sum_p f_p . jet_p = -target; None if impossible."""
    smonos = sorted(_s_monomials(degbound, d), key=grlex_key)
    ns = len(smonos)
    rows, rhs = [], []
    for key in set(target_jet).union(*pivot_jets):
        # one sparse equation per s-monomial of the products; unknown
        # pi * ns + gi is the coefficient of s^smonos[gi] in f_pi
        eqs: dict = {}
        for pi, jet in enumerate(pivot_jets):
            for sg, c in jet.get(key, {}).items():
                for gi, g in enumerate(smonos):
                    row = eqs.setdefault(tuple(x + y for x, y in zip(sg, g)), {})
                    row[pi * ns + gi] = row.get(pi * ns + gi, 0) + c
        base = target_jet.get(key, {})
        for mono in set(eqs) | set(base):
            rows.append(eqs.get(mono, {}))
            rhs.append(-base.get(mono, 0))
    sol = exact_solve(rows, rhs, ns * len(pivot_jets))
    if sol is None:
        return None
    return [Poly(d, dict(zip(smonos, sol[pi * ns:(pi + 1) * ns])))
            for pi in range(len(pivot_jets))]


def _s_monomials(degbound: int, d: int):
    ranges = [range(degbound + 1)] * d
    for combo in itertools.product(*ranges):
        if sum(combo) <= degbound:
            yield combo


def _greedy_columns(R: PolyMatrix, B: PolyMatrix, d: int, degbound: int):
    """Raise column vanishing orders in place; records the ops into B."""
    q = R.q
    changed_any = False
    progress = True
    while progress:
        progress = False
        orders = [least_z_order(R, range(R.p), [j]) for j in range(q)]
        for j in range(q):
            m = orders[j]
            if m is math.inf:
                continue
            m = int(m)
            pivots = [j2 for j2 in range(q) if j2 != j and orders[j2] == m]
            if not pivots:
                continue
            target, *piv_jets = [
                _jet(((i, R.entries[i][c]) for i in range(R.p)), m, d)
                for c in [j, *pivots]]
            fs = _solve_jet_kill(target, piv_jets, d, degbound)
            if fs is None:
                continue
            if all(f.is_zero() for f in fs):
                continue
            for f, j2 in zip(fs, pivots):
                if f.is_zero():
                    continue
                f2 = inflate_t(f, d)  # the op coefficient is a function of t
                for i in range(R.p):
                    R.entries[i][j] = R.entries[i][j] + f2 * R.entries[i][j2]
                for i in range(B.p):
                    B.entries[i][j] = B.entries[i][j] + f * B.entries[i][j2]
            neworder = least_z_order(R, range(R.p), [j])
            if neworder > m:
                progress = True
                changed_any = True
                orders[j] = neworder
            # a solvable kill always raises the order; if not, undo is not
            # needed because the jet solve guarantees cancellation at order m
    return changed_any


def _runs(values):
    groups = []
    for v in values:
        if groups and groups[-1][0] == v:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
    return [g[1] for g in groups]


def _greedy_rows(R: PolyMatrix, A: PolyMatrix, d: int, degbound: int):
    """Raise within-column-group row orders using rows of compatible profile."""
    p = R.p
    col_orders = [least_z_order(R, range(p), [j]) for j in range(R.q)]
    order_vals = sorted({o for o in col_orders})
    groups = [[j for j in range(R.q) if col_orders[j] == v] for v in order_vals]
    changed_any = False
    progress = True
    while progress:
        progress = False
        profiles = [
            tuple(least_z_order(R, [i], g) for g in groups) for i in range(p)
        ]
        for gi in range(len(groups) - 1, 0, -1):
            cols = groups[gi]
            for i in range(p):
                m = profiles[i][gi]
                if m is math.inf:
                    continue
                m = int(m)
                pivots = [
                    i2 for i2 in range(p)
                    if i2 != i and profiles[i2][gi] == m
                    and all(profiles[i2][g2] >= profiles[i][g2]
                            for g2 in range(len(groups)) if g2 != gi)
                ]
                if not pivots:
                    continue
                target, *piv_jets = [
                    _jet(((j, R.entries[r][j]) for j in cols), m, d)
                    for r in [i, *pivots]]
                fs = _solve_jet_kill(target, piv_jets, d, degbound)
                if fs is None or all(f.is_zero() for f in fs):
                    continue
                for f, i2 in zip(fs, pivots):
                    if f.is_zero():
                        continue
                    f2 = inflate_s(f, d)  # row ops use functions of s
                    for j in range(R.q):
                        R.entries[i][j] = R.entries[i][j] + f2 * R.entries[i2][j]
                    for j in range(A.q):
                        A.entries[i][j] = A.entries[i][j] + f * A.entries[i2][j]
                if least_z_order(R, [i], cols) > m:
                    progress = True
                    changed_any = True
                    profiles = [
                        tuple(least_z_order(R, [i3], g) for g in groups)
                        for i3 in range(p)
                    ]
    return changed_any


def eliminate(M: PolyMatrix):
    """Joint row/column reduction of an incidence matrix.

    Returns (A, B, R, decomp): determinant-one A(s), B(t), the reduced
    bivariate matrix R(s, z) = A(s) M(s) B(s + z), and the block
    decomposition read off from it (column groups by vanishing order, row
    groups by order profile).

    The flow of the constant closure generators is used when the closure
    system solves with nilpotent generators; the greedy strategy needs no
    closure hypothesis and runs in either case.
    """
    if not M.exact:
        raise ValueError("eliminate needs exact coefficients")
    p, q, d = M.p, M.q, M.d
    degbound = max(M.degree(), 1)

    A = PolyMatrix.identity(p, d)
    generators = _solve_constant_closure(M)
    if generators is not None:
        B = _exp_flow(generators, d, q)
    else:
        B = PolyMatrix.identity(q, d)
    R = reduced_product(A, M, B)

    for _ in range(8):
        c1 = _greedy_columns(R, B, d, degbound)
        c2 = _greedy_rows(R, A, d, degbound)
        if not (c1 or c2):
            break

    # sort columns by vanishing order, rows by their order profile
    col_orders = [least_z_order(R, range(p), [j]) for j in range(q)]
    cperm = sorted(range(q), key=lambda j: (col_orders[j], j))
    _apply_col_perm(R, cperm)
    _apply_col_perm(B, cperm)
    col_orders = [col_orders[j] for j in cperm]
    col_groups = _runs(col_orders)

    off = group_offsets(col_groups)
    group_cols = [list(range(off[k], off[k + 1])) for k in range(len(col_groups))]
    profiles = [tuple(least_z_order(R, [i], g) for g in group_cols)
                for i in range(p)]
    rperm = sorted(range(p), key=lambda i: (profiles[i], i))
    _apply_row_perm(R, rperm)
    _apply_row_perm(A, rperm)
    profiles = [profiles[i] for i in rperm]
    row_groups = _runs(profiles)

    D, zero_blocks = vanishing_degrees(R, row_groups, col_groups)
    decomp = BlockDecomposition(row_groups, col_groups, D, A, B, zero_blocks)
    return A, B, R, decomp


def _perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _apply_col_perm(X: PolyMatrix, perm):
    sign = _perm_sign(perm)
    for i in range(X.p):
        X.entries[i] = [X.entries[i][j] for j in perm]
        if sign < 0:
            X.entries[i][-1] = X.entries[i][-1].scale(-1)


def _apply_row_perm(X: PolyMatrix, perm):
    sign = _perm_sign(perm)
    X.entries = [X.entries[i] for i in perm]
    if sign < 0:
        X.entries[-1] = [e.scale(-1) for e in X.entries[-1]]


# -- degrees, verification, tiles --------------------------------------------------


def vanishing_degrees(R: PolyMatrix, row_groups, col_groups):
    """Blockwise diagonal vanishing orders of a reduced bivariate matrix.

    D_ij is the least total z-degree over the (i, j) block carrying a
    coefficient not identically zero in s.  Identically-zero blocks are
    flagged and get the sentinel 1 + max z-degree seen in their block row
    and column.
    """
    d = R.d // 2
    if sum(row_groups) != R.p or sum(col_groups) != R.q:
        raise ValueError("groups do not partition the matrix")
    ri, ci = group_offsets(row_groups), group_offsets(col_groups)
    nI, nJ = len(row_groups), len(col_groups)
    D = [[0] * nJ for _ in range(nI)]
    zero_blocks = set()
    for i in range(nI):
        for j in range(nJ):
            order = least_z_order(R, range(ri[i], ri[i + 1]), range(ci[j], ci[j + 1]))
            if order == math.inf:
                zero_blocks.add((i, j))
            else:
                D[i][j] = order
    for (i, j) in zero_blocks:
        degs = [
            z_degree(R.entries[r][c], d)
            for r in range(ri[i], ri[i + 1]) for c in range(R.q)
        ] + [
            z_degree(R.entries[r][c], d)
            for c in range(ci[j], ci[j + 1]) for r in range(R.p)
        ]
        D[i][j] = 1 + max([dg for dg in degs if dg >= 0], default=0)
    return D, zero_blocks


@dataclass
class VerifyReport:
    ok: bool
    det_ok: bool
    monotone_ok: bool
    violations: list

    def to_json(self):
        return {
            "ok": self.ok,
            "det_ok": self.det_ok,
            "monotone_ok": self.monotone_ok,
            "violations": [
                {"block": list(v[0]), "alpha": list(v[1]), "beta": list(v[2]),
                 "entry": list(v[3])}
                for v in self.violations
            ],
        }


def reduced_matrix(M, decomp: BlockDecomposition) -> PolyMatrix:
    """A(s) M(s) B(s+z) as a bivariate matrix."""
    return reduced_product(decomp.A, M, decomp.B)


def verify_block_decomposition(M, decomp: BlockDecomposition) -> VerifyReport:
    """Exact check of a block decomposition against its incidence matrix.

    Verifies det A == det B == 1, blockwise diagonal vanishing to the
    declared formal degrees (every z-monomial of total degree < D_ij must be
    absent), and separate monotonicity of D.  All violations are listed,
    none raise.
    """
    d = M.d
    det_ok = unimodular(d, decomp.A, decomp.B)
    R = reduced_matrix(M, decomp)
    violations = []
    ri, ci = group_offsets(decomp.row_groups), group_offsets(decomp.col_groups)
    for i in range(len(decomp.row_groups)):
        for j in range(len(decomp.col_groups)):
            need = decomp.D[i][j]
            for r in range(ri[i], ri[i + 1]):
                for c in range(ci[j], ci[j + 1]):
                    e = R.entries[r][c]
                    for a in sorted(e.terms, key=grlex_key):
                        if sum(a[d:]) < need:
                            violations.append(
                                ((i, j), (0,) * d, a[d:], (r, c)))
                            break
    monotone_ok = degrees_monotone(
        [[None if (i, j) in decomp.zero_blocks else D for j, D in enumerate(row)]
         for i, row in enumerate(decomp.D)])
    ok = det_ok and monotone_ok and not violations
    return VerifyReport(ok, det_ok, monotone_ok, violations)


def tile_map(M, decomp: BlockDecomposition, tile: Tile, t0) -> PolyMatrix:
    """The homogeneous bilinear map attached to a tile at a diagonal point.

    Entry blocks are the degree-D_ij homogeneous z-parts of the reduced
    matrix specialized at s = t = t0; the Taylor expansion supplies the
    1/alpha! normalization.  Exact for rational t0.
    """
    return _tile_block(reduced_matrix(M, decomp), decomp, tile, t0)


def _tile_block(R: PolyMatrix, decomp: BlockDecomposition, tile: Tile, t0) -> PolyMatrix:
    """:func:`tile_map` on the reduced matrix R of ``decomp``."""
    d = len(t0)
    if R.d != 2 * d:
        raise ValueError("diagonal point has wrong dimension")
    iL, iR = tile.I
    jL, jR = tile.J
    ri, ci = group_offsets(decomp.row_groups), group_offsets(decomp.col_groups)
    rows = []
    for i in range(iL, iR + 1):
        for r in range(ri[i], ri[i + 1]):
            row = []
            for j in range(jL, jR + 1):
                for c in range(ci[j], ci[j + 1]):
                    if (i, j) in decomp.zero_blocks:
                        row.append(Poly.zero(d))
                        continue
                    e = specialize_s(R.entries[r][c], t0)
                    row.append(e.homogeneous_part(decomp.D[i][j]))
            rows.append(row)
    return PolyMatrix(rows)


def useful_tiles(decomp: BlockDecomposition) -> list:
    """All interval-product tiles whose immediately-following formal degrees
    strictly dominate the adjacent in-tile ones.  The full tile always
    qualifies."""
    nI = len(decomp.row_groups)
    nJ = len(decomp.col_groups)
    out = []
    for iL in range(nI):
        for iR in range(iL, nI):
            for jL in range(nJ):
                for jR in range(jL, nJ):
                    iR2 = min(iR + 1, nI - 1)
                    jR2 = min(jR + 1, nJ - 1)
                    after = [
                        (i, j)
                        for i in range(iL, iR2 + 1)
                        for j in range(jL, jR2 + 1)
                        if not (i <= iR and j <= jR)
                    ]
                    ok = True
                    for (i, j) in after:
                        if iL <= i - 1 <= iR and jL <= j <= jR:
                            if not decomp.degree(i, j) > decomp.D[i - 1][j]:
                                ok = False
                        if iL <= i <= iR and jL <= j - 1 <= jR:
                            if not decomp.degree(i, j) > decomp.D[i][j - 1]:
                                ok = False
                    if ok:
                        out.append(Tile((iL, iR), (jL, jR)))
    return out
