"""Test-only reference: the column and row sweeps and the permutation helpers
of ``semistab.blockdecomp.eliminate`` before its column pass ran as its row
pass on the transposes, with the ``eliminate`` driver that called them and
its run-length helper, kept verbatim apart from this docstring and the
imports.

``_greedy_columns`` raises the vanishing order of each column by adding
multiples of the columns of the same order, ``_greedy_rows`` that of each row
within every column group but the first by adding multiples of the rows of
the same order whose orders on the other groups are no lower, and the
result is sorted by ``_apply_col_perm`` and ``_apply_row_perm``.  The
oracle tests require ``eliminate`` to give the same A, B, R and
decomposition byte for byte.
"""

from __future__ import annotations

import itertools
import math

from flow_reference import _exp_flow, _solve_constant_closure, _solve_jet_kill
from semistab.blockdecomp import (
    BlockDecomposition,
    _jet,
    group_offsets,
    inflate_s,
    inflate_t,
    least_z_order,
    reduced_product,
    vanishing_degrees,
)
from semistab.polycore import PolyMatrix


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
    """Lengths of the runs of equal consecutive values."""
    return [len(list(run)) for _, run in itertools.groupby(values)]


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
    """(-1)^(number of inversions)."""
    return -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1


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
