"""Test-only reference: ``semistab.radon.pencil_destabilizer`` as it was
before it became one flattening-frame construction for every shape.

It handles p x 2 z-linear matrices with p = 2d - 1 and d = 3, and their
transposes, through the chained column relation S2 w2 = S1 w3.  The code is
kept as it was, apart from this docstring, the imports, and the methods
``Poly.low_order`` and ``PolyMatrix.transpose`` kept here as
:func:`_low_order` and :func:`_transpose`.  The oracle test
requires the same support set in the new frame and a byte-identical
destabilizer on every form this one decides.
"""

from __future__ import annotations

from fractions import Fraction

from semistab.gitnorm import Destabilizer, find_destabilizer
from semistab.lp import exact_det, exact_inverse, exact_nullspace
from semistab.polycore import GroupElement, PolyMatrix, act_group, mi_order, support_set


def _low_order(P) -> int:
    """Smallest total degree carrying a nonzero term (-1 for zero)."""
    if not P.terms:
        return -1
    return min(mi_order(a) for a in P.terms)


def _transpose(P: PolyMatrix) -> PolyMatrix:
    return PolyMatrix([list(col) for col in zip(*P.entries)])


def pencil_destabilizer(P: PolyMatrix, sigma):
    """Exact destabilizing frame for z-linear two-column matrices.

    For p x 2 matrices with entries linear in z in R^d and p = 2d - 1 (the
    generic tall-pencil shape, e.g. the 5 x 2 x 3 curvature pattern), the
    chained column relation S2 w2 = S1 w3 produces rational bases in which
    the support separates; the diagonal destabilizer is then found by the
    exact margin LP.  Returns (GroupElement, Destabilizer) or None.

    Two-row matrices are handled through the transpose symmetry.
    """
    sigma = Fraction(sigma)
    if not P.exact:
        return None
    if any(e.degree() > 1 or (not e.is_zero() and _low_order(e) < 1)
           for row in P.entries for e in row):
        return None
    if P.p == 2 and P.q == 2 * P.d - 1:
        got = pencil_destabilizer(_transpose(P), sigma)
        if got is None:
            return None
        g, dest = got
        swapped = GroupElement(g.B, g.A, g.C, volume_preserving=False)
        return swapped, Destabilizer(dest.w_q, dest.w_p, dest.w_d, dest.margin)
    if P.q != 2 or P.p != 2 * P.d - 1:
        return None
    p, d = P.p, P.d
    S = [[[P.entries[i][j].terms.get(
        tuple(1 if m == l else 0 for m in range(d)), Fraction(0))
        for l in range(d)] for i in range(p)] for j in range(2)]
    S1, S2 = S
    rows = [[S2[i][l] for l in range(d)] + [-S1[i][l] for l in range(d)]
            for i in range(p)]
    ker, _ = exact_nullspace(rows, 2 * d)
    if not ker:
        return None
    w2, w3 = ker[0][:d], ker[0][d:]

    def matvec(Sx, v):
        return [sum(Sx[i][l] * v[l] for l in range(d)) for i in range(p)]

    if d != 3:
        # the reduction below builds the {2x1, 3x2} chain pattern; other
        # tall-pencil families are left to the frame search
        return None
    candidates = [
        [Fraction(1 if m == kk else 0) for m in range(d)] for kk in range(d)
    ]
    for extra in candidates:
        cols = [extra, w2, w3]
        Vm = [[cols[c][r] for c in range(3)] for r in range(3)]
        if exact_det(Vm) == 0:
            continue
        U = [matvec(S1, extra), matvec(S2, extra),
             matvec(S1, w2), matvec(S2, w2), matvec(S2, w3)]
        Um = [[U[c][r] for c in range(p)] for r in range(p)]
        dU = exact_det(Um)
        if dU == 0:
            continue
        Uinv = exact_inverse(Um)
        Uinv[0] = [v * dU for v in Uinv[0]]  # normalize det to 1
        A = tuple(tuple(r) for r in Uinv)
        B = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        C = tuple(tuple(Vm[j][i] for j in range(3)) for i in range(3))
        g = GroupElement(A, B, C, volume_preserving=False)
        Pg = act_group(P, g)
        dest = find_destabilizer(support_set(Pg), sigma)
        if dest is not None:
            return g, dest
    return None
