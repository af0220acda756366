"""Test-only reference: the Monte-Carlo evaluator and wedge norm as they were
before the dense monomial table and the Plücker norm, and the rows of
Lambda^p(omega) as they were built before the Laplace plan.

``matrix_evaluator`` sums one term c * z^alpha at a time, each monomial
built from ``pts[:, k] ** e``; ``wedge_norm_batch`` pairs rows and basis by
a broadcast batched matmul and takes sqrt(det(G G^T)) of the Gram formed by
einsum.  ``det_compound`` gathers every p x p block of omega by broadcast
indexing and takes LAPACK's ``det`` of each.  The code is kept as it was,
apart from this docstring, ``det_compound``'s signature (it read q and p
from M) and ``gram_evaluator``, which composes the first two in the shape
of ``semistab.sublevel.plucker_evaluator``.  The oracle tests compare
``semistab.sublevel`` with it: rows built from the monomial table, the
wedge norms, the rows of Lambda^p(omega) and whole estimates (with
``gram_evaluator`` patched into the estimator).
"""

from __future__ import annotations

import itertools

import numpy as np

from semistab.polycore import PolyMatrix
from semistab.sublevel import OmegaBasis


def wedge_norm_batch(rows, omega) -> np.ndarray:
    """Vectorized wedge_norm for a batch of shape (n, p, q)."""
    cols = omega.columns if isinstance(omega, OmegaBasis) else np.asarray(omega)
    G = rows @ cols
    gram = np.einsum("nij,nkj->nik", G, G)
    det = np.linalg.det(gram)
    return np.sqrt(np.maximum(det, 0.0))


def matrix_evaluator(M: PolyMatrix):
    """callable mapping points (n, d) to evaluated row matrices (n, p, q)."""
    terms = []
    for i in range(M.p):
        for j in range(M.q):
            for a, c in M.entries[i][j].terms.items():
                terms.append((i, j, a, float(c)))

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        out = np.zeros((n, M.p, M.q))
        for i, j, a, c in terms:
            mono = np.full(n, c)
            for k, e in enumerate(a):
                if e:
                    mono = mono * pts[:, k] ** e
            out[:, i, j] += mono
        return out

    return evaluate


def gram_evaluator(M: PolyMatrix, omega):
    """callable mapping points (n, d) to the Gram-path wedge norms of M's rows."""
    rows_of = matrix_evaluator(M)
    return lambda pts: wedge_norm_batch(rows_of(pts), omega)


def det_compound(q: int, p: int, cols, nonzero) -> np.ndarray:
    """The rows ``nonzero`` (an (n, p) array of row sets) of the p x p minors
    of the (q, q) array ``cols``, columns in combinations order."""
    S = np.array(list(itertools.combinations(range(q), p)))
    wedge = np.linalg.det(cols[nonzero[:, None, :, None], S[None, :, None, :]])
    return wedge
