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
:func:`diagonal_shift` built from the two, the product :func:`pm_mul` and
:func:`reduced_product` on it, the maximal minors :func:`maximal_minors` (the
one polynomial-determinant kernel; :mod:`semistab.sublevel` reads its Plücker
coordinates from it), the determinant-one check :func:`unimodular` built on
them, the degree-grid check :func:`degrees_monotone` and the block order
:func:`least_z_order`; :mod:`semistab.radon` verifies its moment families
with the same functions.  The product, which takes exact operands only, and
the minors visit nonzero entries only.  All elimination decisions are exact.

Elimination starts from the flow when it exists: when every s-partial of
every column is a constant linear combination of columns (nilpotently), the
whole column reduction is the polynomial flow B(t) = prod_k exp(-t_k G_k).
One greedy sweep follows in every case, so the flow case also gets its
constant regrouping.  It raises vanishing orders of rows by adding
multiples of rows of the same order, with coefficients found by exact
linear solves on diagonal jets: first the columns, as the rows of the
transposes with ops in t, then the rows with ops in s.  The flow's closure
systems and the jet systems are one sparse exact solve; most have no
solution, and one whose target has a term that no vector reaches is settled
without elimination.
"""

from __future__ import annotations

import bisect
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
    _mul_terms,
    fraction_to_json,
    graded_basis,
    grlex_key,
    is_int,
    partial_derivative,
    polymatrix_from_json,
    polymatrix_to_json,
)


# -- bivariate helpers ------------------------------------------------------------


def _lift(P: Poly, d: int, terms: dict) -> Poly:
    """The lift of P to (s, z) with ``terms``; ValueError unless P is in d vars."""
    if P.dim != d:
        raise ValueError(f"a poly in {P.dim} variables lifted as one in {d}")
    return Poly._of(2 * d, terms, P.exact)


def inflate_s(P: Poly, d: int) -> Poly:
    """Poly in s (d vars) -> poly in (s, z) (2d vars), constant in z."""
    return _lift(P, d, {a + (0,) * d: c for a, c in P.terms.items()})


def inflate_z(P: Poly, d: int) -> Poly:
    """Poly in z (d vars) -> poly in (s, z) (2d vars), constant in s."""
    return _lift(P, d, {(0,) * d + a: c for a, c in P.terms.items()})


def inflate_t(P: Poly, d: int) -> Poly:
    """Poly in t (d vars) -> poly in (s, z) via t = s + z: c t^a is the sum of
    c C(a, b) s^b z^(a-b), b <= a, with the sums by Pascal's rule and the
    term order (b descending) of the product by each s_k + z_k in turn."""
    out = {}
    for a, c in P.terms.items():
        parts = [((), (), c)]
        for e in a:
            parts = [(sb + (b,), zb + (e - b,), row[b]) for sb, zb, v in parts
                     for row in [_pascal_row(v, e)] for b in range(e, -1, -1)]
        out.update((sb + zb, v) for sb, zb, v in parts)
    return _lift(P, d, out)


def _pascal_row(c, e: int) -> list:
    """[c C(e, b) for b = 0..e], each entry the sum of the two above it."""
    row = [c]
    for _ in range(e):
        row = [row[0], *(x + y for x, y in zip(row, row[1:])), row[-1]]
    return row


def z_order(P: Poly, d: int) -> int:
    """Least total z-degree with a nonzero coefficient; -1 for the zero poly."""
    return min((sum(a[d:]) for a in P.terms), default=-1)


def z_degree(P: Poly, d: int) -> int:
    return max((sum(a[d:]) for a in P.terms), default=-1)


def least_z_order(R: PolyMatrix, rows, cols):
    """Least z-order over the nonzero entries R[r][c], r in rows and c in
    cols, of a bivariate matrix; math.inf when all of them are zero."""
    d = R.d // 2
    return min((z_order(R.entries[r][c], d) for r in rows for c in cols
                if not R.entries[r][c].is_zero()), default=math.inf)


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


def _int_terms(P: Poly) -> dict:
    """P's terms, an exact P's integral Fractions as ints (faster products)."""
    return {a: c.numerator if P.exact and c.denominator == 1 else c
            for a, c in P.terms.items()}


def pm_mul(X: PolyMatrix, Y: PolyMatrix) -> PolyMatrix:
    """X Y over the nonzero entries only, which must be exact (ValueError
    otherwise): row i's entries x = X[i][k], k increasing, against the
    entries y of Y's row k.  Each output entry is one term dict, to which
    each product x y (x's terms outer, its zeros dropped) is added in place,
    a key that sums to 0 leaving at once: the terms, in order, of the chain
    of ``Poly`` sums.  Integral Fractions are carried as ints
    (:func:`_int_terms`) and turned back into Fractions.
    """
    if X.q != Y.p:
        raise ValueError("shape mismatch in polynomial matrix product")
    if not all(e.exact for Z in (X, Y) for row in Z.entries for e in row if e.terms):
        raise ValueError("the polynomial matrix product needs exact operands")
    d = X.d
    nonzero = lambda Z: [[(j, _int_terms(e)) for j, e in enumerate(row) if e.terms]
                         for row in Z.entries]
    xs, ys = nonzero(X), nonzero(Y)
    if d != Y.d and any(ys[k] for row in xs for k, _ in row):
        raise ValueError("dimension mismatch")
    rows = []
    for xrow in xs:
        sums = [{} for _ in range(Y.q)]
        for k, x in xrow:
            for j, y in ys[k]:
                acc = sums[j]
                for a, c in _mul_terms(x, y).items():
                    if c:
                        if v := acc.get(a, 0) + c:
                            acc[a] = v
                        else:
                            del acc[a]
        rows.append([Poly._of(d, {a: Fraction(c) if type(c) is int else c
                                  for a, c in acc.items()}, True)
                     for acc in sums])
    return PolyMatrix(rows)


def reduced_product(A: PolyMatrix, M: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """A(s) M(s) B(s + z) as a bivariate matrix: A and M in s, B in t, all
    exact (the product refuses floats with ValueError)."""
    d = M.d
    zero = Poly.zero(2 * d)
    lift = lambda X, f: PolyMatrix([[f(e, d) if e.terms else zero for e in row]
                                    for row in X.entries])
    return pm_mul(pm_mul(lift(A, inflate_s), lift(M, inflate_s)), lift(B, inflate_t))


def maximal_minors(M: PolyMatrix) -> dict:
    """The p x p minors of M, keyed by column subset in combinations order.

    Laplace expansion along each next row, over the minors of the rows
    above: ring operations only, so the minors are exact for an exact M and
    float otherwise.  Only the nonzero minors of the rows above are kept,
    as term dicts (integral Fractions as ints, which multiply faster), and
    only the column subsets that one of them and a nonzero entry of the row
    reach are expanded, in combinations order: a zero entry of the row or
    a zero minor above adds no work.  p > q has no maximal minor.
    """
    exact = M.exact
    minors = {(): {(0,) * M.d: 1}}
    for k, row in enumerate(M.entries):
        below, minors = minors, {}
        # (terms, terms negated) of each nonzero entry, by column
        signed = {j: (terms, {a: -c for a, c in terms.items()}) for j, e in enumerate(row)
                  if e.terms for terms in [_int_terms(e)]}
        # T + {j} for each nonzero minor T above and nonzero entry j, as a sorted tuple
        reached = {T[:i] + (j,) + T[i:] for T in below for j in signed if j not in T
                   for i in [bisect.bisect(T, j)]}
        for S in sorted(reached):
            out = {}
            for i, j in enumerate(S):
                if j not in signed or not (sub := below.get(S[:i] + S[i + 1:])):
                    continue
                for a, ca in signed[j][(k - i) % 2].items():
                    for b, cb in sub.items():
                        ab = tuple(x + y for x, y in zip(a, b))
                        out[ab] = out[ab] + ca * cb if ab in out else ca * cb
            if out := {a: c for a, c in out.items() if c}:
                minors[S] = out
    return {S: Poly(M.d, minors.get(S, {}), exact=exact)
            for S in itertools.combinations(range(M.q), M.p)}


def unimodular(d: int, *Xs: PolyMatrix) -> bool:
    """Whether each X (polynomials in d variables) has determinant 1: its one
    maximal minor, expanded with the sparsest rows first (ties by index),
    times the sign of that row order.  ValueError for a nonsquare X and for
    an X in another number of variables."""
    if any(X.p != X.q for X in Xs):
        raise ValueError("determinant of a nonsquare matrix")
    if any(X.p and X.d != d for X in Xs):
        raise ValueError(f"a matrix in other than {d} variables")
    for X in Xs:
        perm, odd = _sorting_permutation([sum(1 for e in row if e.terms) for row in X.entries])
        det = maximal_minors(PolyMatrix([X.entries[i] for i in perm]))[tuple(range(X.q))]
        if det != Poly.constant(X.d, (-1) ** odd):
            return False
    return True


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
        zero = obj.get("zero_blocks", [])
        if not (isinstance(zero, list) and all(
                isinstance(b, list) and len(b) == 2 and all(map(is_int, b))
                and 0 <= b[0] < nI and 0 <= b[1] < nJ for b in zero)):
            raise ValueError(f"zero_blocks must be [i, j] block indices, "
                             f"0 <= i < {nI} and 0 <= j < {nJ}")
        dec.zero_blocks = {tuple(b) for b in zero}
        return dec


# -- flow elimination ----------------------------------------------------------------


def _solve_linear_combo(vectors, target):
    """Coefficients x with sum x_i vectors_i = target, exact; None if none.
    Vectors and target are sparse ``{key: value}`` mappings with hashable
    keys, one equation per key; the rows come from one pass over the
    vectors' nonzeros.  A nonzero target value on a key that no vector has
    (the equation 0 = c) settles the system as inconsistent without elimination."""
    rows = {key: {} for key in target}
    for i, v in enumerate(vectors):
        for key, c in v.items():
            rows.setdefault(key, {})[i] = c
    if any(c and not rows[key] for key, c in target.items()):
        return None
    return exact_solve(list(rows.values()), [target.get(key, 0) for key in rows],
                       len(vectors))


def _flow(M: PolyMatrix):
    """B(t) = prod_k exp(-t_k G_k) for constant G_k with d/ds_k M = M G_k;
    None when some G_k does not exist or is not nilpotent.

    Each column's s_k-partial is solved for as a constant combination of the
    columns of strictly lower degree first (that choice makes G_k nilpotent
    when it exists), then of all the other columns, with one equation per
    (row, monomial): a monomial of the partial that no column has makes the
    system inconsistent.  The series of exp(-t_k G_k) stops at the first
    zero power of G_k; G_k^q != 0 means B is not polynomial.
    """
    q, d = M.q, M.d
    cols = list(zip(*M.entries))
    vector = lambda col: {(i, a): c for i, e in enumerate(col) for a, c in e.terms.items()}
    vecs, degs = [vector(col) for col in cols], [max(e.degree() for e in col) for col in cols]
    B = PolyMatrix.identity(q, d)
    for k in range(d):
        ek = tuple(1 if j == k else 0 for j in range(d))
        G = [[Fraction(0)] * q for _ in range(q)]
        for j in range(q):
            target = vector(partial_derivative(e, ek) for e in cols[j])
            if not target:
                continue
            lower = [j2 for j2 in range(q) if degs[j2] < degs[j]]
            for use in (lower, [j2 for j2 in range(q) if j2 != j]):
                sol = _solve_linear_combo([vecs[j2] for j2 in use], target)
                if sol is not None:
                    break
            else:
                return None
            for coef, j2 in zip(sol, use):
                G[j2][j] = coef
        entries = PolyMatrix.identity(q, d).entries
        power, fact = [[Fraction(int(i == j)) for j in range(q)] for i in range(q)], 1
        support = [[l for l in range(q) if G[l][j]] for j in range(q)]
        for n in range(1, q + 1):
            power = [[sum(row[l] * G[l][j] for l in support[j]) for j in range(q)]
                     for row in power]
            fact *= n
            if all(v == 0 for row in power for v in row):
                break
            mono = tuple(n * e for e in ek)
            for i, j in itertools.product(range(q), repeat=2):
                if c := power[i][j] * Fraction((-1) ** n, fact):
                    entries[i][j] = entries[i][j] + Poly(d, {mono: c})
        else:
            return None
        B = pm_mul(B, PolyMatrix(entries))
    return B


# -- greedy elimination ----------------------------------------------------------------


def _jet(entries, m: int, d: int):
    """Order-m diagonal jet of labelled entries (a row's, by column):
    {(label, z-beta): s-poly coeff}."""
    jet = {}
    for label, e in entries:
        for a, c in e.terms.items():
            if sum(a[d:]) == m:
                jet.setdefault((label, a[d:]), {})[a[:d]] = c
    return jet


def _solve_jet_kill(target_jet, pivot_jets, d: int, degbound: int):
    """Polynomial coefficients f (one per pivot, degree <= degbound in s)
    with sum_p f_p . jet_p = -target; None if impossible.  Unknown pi * ns + gi
    is the coefficient in f_pi of the gi-th s-monomial s^g; its vector is s^g jet_pi.
    A target term that no vector has settles the system before any is built."""
    basis = graded_basis(d, degbound)
    reached = lambda key, sa: any(tuple(x - y for x, y in zip(sa, sb)) in basis.index
                                  for jet in pivot_jets for sb in jet.get(key, ()))
    if not all(reached(key, sa) for key, spoly in target_jet.items() for sa in spoly):
        return None
    smonos = basis.alphas
    vectors = [{(key, tuple(x + y for x, y in zip(sa, g))): c
                for key, spoly in jet.items() for sa, c in spoly.items()}
               for jet in pivot_jets for g in smonos]
    target = {(key, sa): -c for key, spoly in target_jet.items() for sa, c in spoly.items()}
    sol = _solve_linear_combo(vectors, target)
    if sol is None:
        return None
    ns = len(smonos)
    return [Poly(d, dict(zip(smonos, sol[pi * ns:(pi + 1) * ns])))
            for pi in range(len(pivot_jets))]


def _transpose(X: PolyMatrix) -> PolyMatrix:
    return PolyMatrix([list(col) for col in zip(*X.entries)])


def _column_groups(R: PolyMatrix) -> list:
    """R's columns grouped by vanishing order, in increasing order."""
    orders = [least_z_order(R, range(R.p), [j]) for j in range(R.q)]
    return [[j for j in range(R.q) if orders[j] == v] for v in sorted(set(orders))]


def _raise_rows(R: PolyMatrix, W: PolyMatrix, groups, first: int, lift, d: int,
                degbound: int) -> bool:
    """Raise the vanishing orders of R's rows in place; records the ops into W.

    For each column group from the last down to ``first`` and each row i of
    order m on it, the pivots are the other rows of order m there whose
    orders on every other group are at least row i's.  When coefficients f
    (polynomials in s of degree <= degbound) kill the order-m jet of row i
    on the group, row i gains lift(f, d) times each pivot row in R and f
    times it in W, which raises its order on the group.  Sweeps until no row
    rises and returns whether one did.
    """
    profile = lambda i: tuple(least_z_order(R, [i], g) for g in groups)
    profiles = [profile(i) for i in range(R.p)]
    changed, progress = False, True
    while progress:
        progress = False
        for gi in range(len(groups) - 1, first - 1, -1):
            cols = groups[gi]
            for i in range(R.p):
                m = profiles[i][gi]
                if m == math.inf:
                    continue
                # a pivot has order m on this group too, so comparing whole
                # profiles compares the other groups
                pivots = [i2 for i2 in range(R.p) if i2 != i and profiles[i2][gi] == m
                          and all(a >= b for a, b in zip(profiles[i2], profiles[i]))]
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
                    for X, c in ((R, lift(f, d)), (W, f)):
                        X.entries[i] = [e + c * e2 for e, e2 in
                                        zip(X.entries[i], X.entries[i2])]
                # only row i moved, so the other profiles stand
                profiles[i] = profile(i)
                if profiles[i][gi] > m:
                    progress = changed = True
    return changed


def _sorting_permutation(key) -> tuple:
    """(the indices of ``key`` sorted by it, ties by index; 1 if that
    permutation is odd, else 0)."""
    perm = sorted(range(len(key)), key=lambda i: (key[i], i))
    return perm, sum(a > b for a, b in itertools.combinations(perm, 2)) % 2


def _sort_rows(X: PolyMatrix, W: PolyMatrix, key) -> list:
    """New X and W with their rows sorted by key, ties by index; an odd
    permutation also negates the last row of each, so determinants stay."""
    perm, odd = _sorting_permutation(key)
    out = []
    for Y in (X, W):
        rows = [Y.entries[i] for i in perm]
        if odd:
            rows[-1] = [e.scale(-1) for e in rows[-1]]
        out.append(PolyMatrix(rows))
    return out


def eliminate(M: PolyMatrix):
    """Joint row/column reduction of an incidence matrix.

    Returns (A, B, R, decomp): determinant-one A(s), B(t), the reduced
    bivariate matrix R(s, z) = A(s) M(s) B(s + z), and the block
    decomposition read off from it (column groups by vanishing order, row
    groups by order profile).

    B starts as the flow (:func:`_flow`) when the constant closure
    generators exist and are nilpotent, else as the identity.  Then one
    greedy sweep, which needs no closure hypothesis, alternates two passes
    until neither raises an order: the columns, as the rows of the
    transposes of R and B with ops in t, and the rows of R and A within
    each column group but the first, with ops in s.  The closure and the
    jet systems share one sparse solve, :func:`_solve_linear_combo`.
    """
    if not M.exact:
        raise ValueError("eliminate needs exact coefficients")
    p, q, d = M.p, M.q, M.d
    degbound = max(M.degree(), 1)

    A = PolyMatrix.identity(p, d)
    B = _flow(M) or PolyMatrix.identity(q, d)
    R = reduced_product(A, M, B)

    for _ in range(8):
        RT, BT = _transpose(R), _transpose(B)
        cols = _raise_rows(RT, BT, [range(p)], 0, inflate_t, d, degbound)
        R, B = _transpose(RT), _transpose(BT)
        rows = _raise_rows(R, A, _column_groups(R), 1, inflate_s, d, degbound)
        if not (cols or rows):
            break

    # sort columns by vanishing order, rows by their order profile
    RT, BT = _transpose(R), _transpose(B)
    RT, BT = _sort_rows(RT, BT, [least_z_order(RT, [j], range(p)) for j in range(q)])
    R, B = _transpose(RT), _transpose(BT)
    groups = _column_groups(R)
    profiles = [tuple(least_z_order(R, [i], g) for g in groups) for i in range(p)]
    R, A = _sort_rows(R, A, profiles)
    col_groups = [len(g) for g in groups]
    row_groups = [len(list(run)) for _, run in itertools.groupby(sorted(profiles))]

    D, zero_blocks = vanishing_degrees(R, row_groups, col_groups)
    decomp = BlockDecomposition(row_groups, col_groups, D, A, B, zero_blocks)
    return A, B, R, decomp


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
        cells = [(r, c) for r in range(ri[i], ri[i + 1]) for c in range(R.q)]
        cells += [(r, c) for c in range(ci[j], ci[j + 1]) for r in range(R.p)]
        D[i][j] = 1 + max(0, *(z_degree(R.entries[r][c], d) for r, c in cells))
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
    absent, and every term of a declared zero block), and separate
    monotonicity of D.  All violations are listed, none raise.
    """
    d = M.d
    det_ok = unimodular(d, decomp.A, decomp.B)
    R = reduced_matrix(M, decomp)
    violations = []
    ri, ci = group_offsets(decomp.row_groups), group_offsets(decomp.col_groups)
    for i in range(len(decomp.row_groups)):
        for j in range(len(decomp.col_groups)):
            need = decomp.degree(i, j)
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
    """All interval-product tiles (iL..iR) x (jL..jR) whose formal degrees
    rise strictly across their far boundary: each block below the last row
    exceeds the block above it, and each block right of the last column the
    block left of it, where that row or column exists.  The full tile always
    qualifies."""
    nI, nJ = len(decomp.row_groups), len(decomp.col_groups)
    deg, D = decomp.degree, decomp.D
    return [Tile((iL, iR), (jL, jR))
            for iL in range(nI) for iR in range(iL, nI)
            for jL in range(nJ) for jR in range(jL, nJ)
            if (iR + 1 == nI or all(deg(iR + 1, j) > D[iR][j] for j in range(jL, jR + 1)))
            and (jR + 1 == nJ or all(deg(i, jR + 1) > D[i][jR] for i in range(iL, iR + 1)))]
