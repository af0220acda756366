"""Test-only reference: the flow and the jet solve of
``semistab.blockdecomp.eliminate`` before they shared one sparse exact solve
and the flow became one routine, kept verbatim apart from this docstring and
the imports.

``_solve_constant_closure`` finds constant generators G_k with
d/ds_k M = M G_k over a monomial index padded with every derivative
monomial and checks that each is nilpotent; ``_exp_flow`` then computes
their powers again for B(t) = prod_k exp(-t_k G_k).  ``_solve_jet_kill``
builds its own per-key equations over the s-monomials of ``_s_monomials``.
The oracle tests require ``blockdecomp._flow`` and ``_solve_jet_kill`` to
give the same results.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from semistab.blockdecomp import pm_mul
from semistab.lp import exact_solve
from semistab.polycore import Poly, PolyMatrix, grlex_key, partial_derivative


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

