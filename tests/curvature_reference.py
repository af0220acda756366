"""Test-only reference: the two curvature-form charts as they were before
``semistab.radon.curvature_form`` became one function, and the slot maps
``CurvatureForm.transformed`` as they were before they became one einsum.

``curvature_form`` is the exact chart (rational pivoting, Fractions) and
``_curvature_form_float`` the double-precision one (orthogonal kernel
splitting with a 1e-8 rank threshold).  The code is kept as it was, apart
from this docstring, the imports and ``transformed`` taking the form as an
argument.  The oracle tests require identical exact tensors and
bitwise-equal float tensors from the one function.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from semistab.blockdecomp import diagonal_shift
from semistab.lp import exact_inverse, exact_nullspace
from semistab.radon import CurvatureForm, NonTransverse, RadonProblem


def curvature_form(prob: RadonProblem, z0) -> CurvatureForm:
    """Extract the curvature form at a base point.

    Normalizes coordinates (translate the base point to the origin, split
    the x-space along the kernel of the x-Jacobian, renormalize the target
    so the Jacobian restricted to the complement is the identity) and
    returns g[i][j][l] = d^2 phi^i / dx_j dt_l at the point, with j running
    over kernel directions.

    Rational data goes through exact pivoting; anything else through the
    double-precision orthogonal path with a 1e-8 rank threshold.  The
    returned form records which chart ran.
    """
    nv = prob.n + prob.nt
    if len(z0) != nv:
        raise ValueError("base point must have n + (n1-k) coordinates")
    if not all(f.exact for f in prob.phi):
        return _curvature_form_float(prob, z0)
    z0 = [Fraction(v) for v in z0]
    shifted = [diagonal_shift(f, z0) for f in prob.phi]
    J = [[f.terms.get(tuple(int(m == j) for m in range(nv)), Fraction(0))
          for j in range(prob.n)] for f in shifted]
    kernel, piv_cols = exact_nullspace(J, prob.n)
    if len(piv_cols) < prob.k:
        raise NonTransverse(
            f"x-Jacobian rank {len(piv_cols)} < codimension {prob.k}")
    # target renormalization T = (J restricted to pivot columns)^{-1}
    sub = [[J[i][c] for c in piv_cols] for i in range(prob.k)]
    T = exact_inverse(sub)
    # second mixed partials d^2 phi^i / dx_a dt_l at 0
    mixed = {}
    for i in range(prob.k):
        for a in range(prob.n):
            for l in range(prob.nt):
                key = [0] * nv
                key[a] += 1
                key[prob.n + l] += 1
                mixed[(i, a, l)] = shifted[i].terms.get(tuple(key), Fraction(0))
    tensor = []
    for i in range(prob.k):
        plane = []
        for j, kv in enumerate(kernel):
            row = []
            for l in range(prob.nt):
                acc = Fraction(0)
                for i2 in range(prob.k):
                    for a in range(prob.n):
                        if kv[a] == 0 or T[i][i2] == 0:
                            continue
                        acc += T[i][i2] * kv[a] * mixed[(i2, a, l)]
                row.append(acc)
            plane.append(row)
        tensor.append(plane)
    return CurvatureForm(tensor)


def _curvature_form_float(prob: RadonProblem, z0) -> CurvatureForm:
    """Double-precision normalization: orthogonal kernel splitting with a
    1e-8 rank threshold instead of exact pivoting."""
    nv = prob.n + prob.nt
    shifted = [diagonal_shift(f, [float(v) for v in z0]) for f in prob.phi]
    J = np.zeros((prob.k, prob.n))
    for i in range(prob.k):
        for j in range(prob.n):
            ej = tuple(1 if m == j else 0 for m in range(nv))
            J[i, j] = float(shifted[i].terms.get(ej, 0.0))
    U, s, Vt = np.linalg.svd(J)
    rank = int(np.sum(s > 1e-8 * max(s[0], 1e-300))) if s.size else 0
    if rank < prob.k:
        raise NonTransverse(
            f"x-Jacobian rank {rank} < codimension {prob.k}")
    kernel = Vt[prob.k:, :]          # rows span ker J
    comp = Vt[:prob.k, :]            # rows span the complement
    T = np.linalg.inv(J @ comp.T)    # target renormalization
    mixed = np.zeros((prob.k, prob.n, prob.nt))
    for i in range(prob.k):
        for a in range(prob.n):
            for l in range(prob.nt):
                key = [0] * nv
                key[a] += 1
                key[prob.n + l] += 1
                mixed[i, a, l] = float(shifted[i].terms.get(tuple(key), 0.0))
    tensor = np.einsum("im,ja,mal->ijl", T, kernel, mixed, optimize=True)
    return CurvatureForm([[[float(v) for v in row] for row in plane]
                          for plane in tensor], chart="float")


def transformed(Q: CurvatureForm, L_out, L_x, L_t) -> CurvatureForm:
    """Apply linear maps to the three slots (exact for rational maps)."""
    k, b, c = Q.shape
    out = [[[Fraction(0) for _ in range(c)] for _ in range(b)]
           for _ in range(k)]
    for i in range(k):
        for j in range(b):
            for l in range(c):
                acc = Fraction(0)
                for i2 in range(k):
                    for j2 in range(b):
                        for l2 in range(c):
                            acc += (Fraction(L_out[i][i2])
                                    * Fraction(L_x[j2][j])
                                    * Fraction(L_t[l2][l])
                                    * Fraction(Q.tensor[i2][j2][l2]))
                out[i][j][l] = acc
    return CurvatureForm(out)
