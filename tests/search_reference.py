"""Test-only reference: the randomized frame search that ``git_norm`` ran
before the deterministic critical-point search.

This is how ``semistab.gitnorm.git_norm`` searched: the identity frame and
Haar restarts, then Cayley coordinate descent on the frames until the budget
of inner solves was spent, then a first-order gradient polish on the full
group.  The code is kept as it was, apart from this docstring, the names
``_act_dense`` and ``_rescaled``, the constants below and the copies of
``_split_polar`` and ``_scaled_norm``; ``frame_element(frames)`` is written
out as ``GroupElement(*frames, volume_preserving=False)``.  ``_act_dense`` is
the float action with its old pruning at 1e-14 of each entry's largest
coefficient, and ``_minimize`` is the old inner solve with its absolute
gradient test and value cut-offs.  The oracle test compares the new search
with it: on a semistable input the new value must be at most this one.
"""

from __future__ import annotations

import math

import numpy as np

from semistab.gitnorm import (
    DiagonalResult,
    GitEstimate,
    LogWeights,
    _cells,
    _foc_matrices,
    _residual,
    _sym_expm,
    _traceless_basis,
    _weight_matrix,
    haar_orthogonal,
)
from semistab.polycore import (
    GradedBasis,
    GroupElement,
    PolyMatrix,
    _mix,
    hs_norm,
    to_dense,
)

DRIFT_WALL = 50.0
DRIFT_VALUE_REL = 1e-6
DEFAULT_GRAD_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DEFAULT_RESTARTS = 64
FLOAT_PRUNE_REL = 1e-14


def _scaled_norm(V: np.ndarray, m: np.ndarray, w: LogWeights) -> float:
    if len(m) == 0:
        return 0.0
    return math.sqrt(float(np.sum(m * np.exp(2.0 * V @ w.flat()))))


def _act_dense(basis: GradedBasis, T: np.ndarray, A, B, C) -> np.ndarray:
    A, B, C = (np.asarray(M, dtype=float) for M in (A, B, C))
    X = _mix(T, A, B, basis.sym_power(C))
    cut = FLOAT_PRUNE_REL * np.abs(X).max(axis=2, keepdims=True)
    return np.where(np.abs(X) > cut, X, 0.0)


def _minimize(V: np.ndarray, m: np.ndarray, U: np.ndarray, dims, tol: float,
              max_iter: int) -> DiagonalResult:
    """:func:`minimize_diagonal` on the support (V, m), with U the
    traceless basis of the weights."""
    p, q, d = dims
    if len(m) == 0:
        return DiagonalResult(0.0, LogWeights.zeros(p, q, d), "converged", 0)
    total = float(m.sum())
    mh = m / total

    def split(wflat):
        return LogWeights(wflat[:p] - wflat[:p].mean(),
                          wflat[p:p + q] - wflat[p:p + q].mean(),
                          wflat[p + q:])

    VU = V @ U  # support vectors in subspace coordinates
    y = np.zeros(U.shape[1])

    def fval(yv):
        return float(np.sum(mh * np.exp(2.0 * (VU @ yv))))

    f = fval(y)
    status = "budget-exhausted"
    it = 0
    for it in range(1, max_iter + 1):
        e = mh * np.exp(2.0 * (VU @ y))
        g = 2.0 * (VU.T @ e)
        if np.abs(g).max() <= tol:
            status = "converged"
            break
        w = U @ y
        if np.abs(w).max() > DRIFT_WALL:
            # monotone descent past the wall: zero along a ray when the
            # objective has actually collapsed, otherwise an unattained
            # positive infimum (e.g. triangular constants); keep going a
            # while, then report the bound we reached
            if f < 1e-12:
                status = "drift-to-zero"
                break
            if np.abs(w).max() > 10 * DRIFT_WALL:
                status = "budget-exhausted"
                break
        H = 4.0 * (VU.T * e) @ VU
        H += np.eye(H.shape[0]) * (1e-14 * max(np.trace(H), 1e-300))
        try:
            step = -np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = -g
        if not np.all(np.isfinite(step)):
            step = -g
        # line search: expand while improving, halve otherwise
        t = 1.0
        fnew = fval(y + t * step)
        if fnew < f:
            while True:
                fbig = fval(y + 2.0 * t * step)
                if fbig < fnew and t < 2 ** 40:
                    t *= 2.0
                    fnew = fbig
                else:
                    break
        else:
            ok = False
            for _ in range(60):
                t *= 0.5
                fnew = fval(y + t * step)
                if fnew < f:
                    ok = True
                    break
            if not ok:
                status = "converged"  # numerically stationary
                break
        y = y + t * step
        f = fnew
        if f < 1e-30:
            status = "drift-to-zero"
            break
    w = U @ y
    value = math.sqrt(f * total)
    return DiagonalResult(value, split(w), status, it)


def _split_polar(A):
    """A = U D V^T; returns (log diag D recentred, V^T) so that the value at
    A is reproduced by diagonal weights over the orthogonal frame V^T."""
    U, s, Vt = np.linalg.svd(A)
    w = np.log(s)
    return w, Vt


def cayley(S: np.ndarray) -> np.ndarray:
    n = S.shape[0]
    return np.linalg.solve(np.eye(n) - S, np.eye(n) + S)


def kempf_ness_polish(P: PolyMatrix, sigma, g0, max_steps: int = 200,
                      foc_target_rel: float = 1e-9):
    """Gradient flow on the full group, driving the criticality residual
    to zero from a near-optimal start.  A step that does not lower the value,
    or whose C is numerically singular, is retried at half the step size.
    Returns (A, B, C) float matrices, the final value, and the residual."""
    sigma = float(sigma)
    A = np.array(g0[0], dtype=float)
    B = np.array(g0[1], dtype=float)
    C = np.array(g0[2], dtype=float)
    basis, T = to_dense(P)

    def value_and_res(A, B, C):
        g = GroupElement(A, B, C, volume_preserving=False)
        Tn = _act_dense(basis, T, g.A, g.B, g.C) * abs(g.det_C()) ** (-sigma)
        R1, R2, R3, norm2 = _foc_matrices(basis, Tn, sigma)
        res = math.sqrt((R1 ** 2).sum() + (R2 ** 2).sum()
                        + ((0.5 * (R3 + R3.T)) ** 2).sum())
        return math.sqrt(norm2), res, (R1, R2, 0.5 * (R3 + R3.T)), norm2

    val, res, grads, norm2 = value_and_res(A, B, C)
    eta = 0.25
    for _ in range(max_steps):
        if res <= foc_target_rel * norm2 or not math.isfinite(res):
            break
        R1, R2, R3s = grads
        sc = 1.0 / max(norm2, 1e-300)
        A2 = _sym_expm(-eta * sc * R1) @ A
        B2 = _sym_expm(-eta * sc * R2) @ B
        C2 = _sym_expm(-eta * sc * R3s) @ C
        try:
            val2, res2, grads2, norm22 = value_and_res(A2, B2, C2)
        except ValueError:  # C2 is numerically singular: a failed step
            val2 = math.inf
        if val2 <= val * (1 + 1e-12):
            A, B, C = A2, B2, C2
            val, res, grads, norm2 = val2, res2, grads2, norm22
            eta = min(eta * 1.3, 1.0)
        else:
            eta *= 0.5
            if eta < 1e-8:
                break
    return (A, B, C), val, res


def _rescaled(basis: GradedBasis, T: np.ndarray, w: LogWeights, sigma) -> np.ndarray:
    g = GroupElement(np.diag(np.exp(w.w_p)), np.diag(np.exp(w.w_q)),
                     np.diag(np.exp(w.w_d)), volume_preserving=False)
    pref = math.exp(-float(sigma) * float(np.sum(w.w_d)))
    return _act_dense(basis, T, g.A, g.B, g.C) * pref


def git_norm(P: PolyMatrix, sigma, restarts: int = DEFAULT_RESTARTS,
             budget: int = 400, seed: int = 0, tol: float = DEFAULT_GRAD_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> GitEstimate:
    """Two-stage upper-bound search for the group-invariant norm.

    Outer loop: orthogonal frames (identity, Haar restarts, then coordinate
    descent through Cayley parameters with step halving).  Inner loop:
    the convex diagonal minimization.  The returned value is always an upper
    bound; "drift-to-zero" means some frame drove the inner problem below
    1e-6 times ||P||.
    """
    p, q, d = P.p, P.q, P.d
    hs0 = hs_norm(P)
    if hs0 == 0.0:
        return GitEstimate(0.0, "converged", LogWeights.zeros(p, q, d),
                           (np.eye(p), np.eye(q), np.eye(d)), 0.0, 0)
    rng = np.random.default_rng(seed)
    evals = 0
    basis, T = to_dense(P)
    V = _weight_matrix(basis, p, q, sigma)
    U = _traceless_basis(p, q, d)

    def in_frame(frames):
        g = GroupElement(*frames, volume_preserving=False)
        return _act_dense(basis, T, g.A, g.B, g.C)

    def inner(frames):
        nonlocal evals
        evals += 1
        Vf, m = _cells(basis, in_frame(frames), V)
        return _minimize(Vf, m, U, (p, q, d), tol, max_iter)

    best = None
    best_frames = None
    for k in range(max(1, restarts)):
        frames = (np.eye(p), np.eye(q), np.eye(d)) if k == 0 else (
            haar_orthogonal(rng, p), haar_orthogonal(rng, q), haar_orthogonal(rng, d))
        res = inner(frames)
        if best is None or res.value < best.value:
            best, best_frames = res, frames
        if res.status == "drift-to-zero" or res.value < DRIFT_VALUE_REL * hs0:
            best, best_frames = res, frames
            break

    # local refinement: coordinate descent through Cayley parameters
    if best.status != "drift-to-zero" and best.value >= DRIFT_VALUE_REL * hs0:
        step = 0.5
        sizes = (p, q, d)
        while step > 1e-7 and evals < budget:
            improved = False
            for which in range(3):
                n = sizes[which]
                for a in range(n):
                    for b in range(a + 1, n):
                        if evals >= budget:
                            break
                        for sgn in (+1.0, -1.0):
                            S = np.zeros((n, n))
                            S[a, b] = sgn * step
                            S[b, a] = -sgn * step
                            trial = list(best_frames)
                            trial[which] = cayley(S) @ trial[which]
                            res = inner(tuple(trial))
                            if res.value < best.value * (1 - 1e-12):
                                best, best_frames = res, tuple(trial)
                                improved = True
                                break
                if evals >= budget:
                    break
            if not improved:
                step *= 0.5
            if best.status == "drift-to-zero" or best.value < DRIFT_VALUE_REL * hs0:
                break

    status = best.status
    if best.value < DRIFT_VALUE_REL * hs0:
        status = "drift-to-zero"
    value = best.value
    weights = best.weights
    frames = best_frames
    foc = math.inf
    if status == "converged" and weights.inf_norm() < 40.0:
        # descend the criticality residual itself; the value search alone
        # leaves a frame error of order sqrt(its tolerance)
        g0 = (np.diag(np.exp(weights.w_p)) @ frames[0],
              np.diag(np.exp(weights.w_q)) @ frames[1],
              np.diag(np.exp(weights.w_d)) @ frames[2])
        (A, B, C), val2, res2 = kempf_ness_polish(P, sigma, g0)
        if val2 <= value * (1 + 1e-9):
            w1, V1t = _split_polar(A)
            w2, V2t = _split_polar(B)
            w3, V3t = _split_polar(C)
            frames = (V1t, V2t, V3t)
            weights = LogWeights(w1 - w1.mean(), w2 - w2.mean(), w3)
            Tf = in_frame(frames)
            value = min(value, _scaled_norm(*_cells(basis, Tf, V), weights))
            foc = _residual(basis, _rescaled(basis, Tf, weights, sigma), float(sigma))
    elif weights.inf_norm() < 40.0:
        Tf = in_frame(best_frames)
        foc = _residual(basis, _rescaled(basis, Tf, weights, sigma), float(sigma))
    if value < DRIFT_VALUE_REL * hs0:
        # the polish follows the norm-shrinking flow, so an unstable input
        # can slide to numerical zero after a nominally converged inner solve
        status = "drift-to-zero"
    return GitEstimate(value, status, weights, frames, foc, evals)
