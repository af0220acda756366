"""The scale-invariant group norm of a polynomial matrix and its certificates.

For a p x q matrix P of degree-<=D polynomials in d variables, the quantity
of interest is the infimum of |det C|^(-sigma) * ||rho_(A,B,C) P|| over
volume-one row/column mixes and invertible variable changes.  Positivity of
that infimum is decided three ways, in increasing order of effort:

* a sparse criterion (exact): when no monomial collides in any row or column,
  a rational LP for convex weights theta on the support certifies positivity;
* polytope membership / separating functionals (exact, per frame): the
  balanced barycenter lies in the Newton support hull iff no diagonal
  one-parameter subgroup kills the matrix in that frame;
* numeric two-stage minimization (upper bounds only): orthogonal frame search
  wrapped around a damped-Newton solve of the convex diagonal problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lp import CertificateError, feasible_point, solve_eq_lp
from .polycore import (
    GradedBasis,
    GroupElement,
    PolyMatrix,
    SupportSet,
    act_dense,
    act_group,
    from_dense,
    hs_norm,
    mi_factorial,
    support_set,
    to_dense,
)

DRIFT_WALL = 50.0          # ||w||_inf beyond this while decreasing = ray to zero
DRIFT_VALUE_REL = 1e-6     # value below this times ||P|| counts as zero
DEFAULT_GRAD_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DEFAULT_RESTARTS = 64


@dataclass
class LogWeights:
    """Diagonal log-scalings (w_p; w_q; w_d) with traceless row/column parts."""

    w_p: np.ndarray
    w_q: np.ndarray
    w_d: np.ndarray

    def __post_init__(self):
        self.w_p = np.asarray(self.w_p, dtype=float)
        self.w_q = np.asarray(self.w_q, dtype=float)
        self.w_d = np.asarray(self.w_d, dtype=float)
        for name, v in (("w_p", self.w_p), ("w_q", self.w_q)):
            if v.size and abs(v.sum()) > 1e-12 * max(1.0, np.abs(v).max()):
                raise ValueError(f"{name} is not traceless: sum={v.sum()}")

    @staticmethod
    def zeros(p: int, q: int, d: int) -> "LogWeights":
        return LogWeights(np.zeros(p), np.zeros(q), np.zeros(d))

    def flat(self) -> np.ndarray:
        return np.concatenate([self.w_p, self.w_q, self.w_d])

    def inf_norm(self) -> float:
        v = self.flat()
        return float(np.abs(v).max()) if v.size else 0.0


@dataclass
class GitEstimate:
    value: float
    status: str                       # converged | drift-to-zero | budget-exhausted
    weights: LogWeights
    frames: tuple                     # (O1, O2, O3) float arrays
    foc_residual: float
    evaluations: int = 0

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "status": self.status,
            "foc_residual": self.foc_residual,
            "weights": {
                "w_p": list(self.weights.w_p),
                "w_q": list(self.weights.w_q),
                "w_d": list(self.weights.w_d),
            },
        }


@dataclass
class SparseVerdict:
    applicable: bool
    positive: bool
    theta: dict | None = None             # (i, j, alpha) -> Fraction
    strictly_positive_theta: bool = False
    reason: str = ""

    def to_json(self) -> dict:
        theta = None
        if self.theta is not None:
            theta = [
                {"i": i, "j": j, "alpha": list(a),
                 "num": t.numerator, "den": t.denominator}
                for (i, j, a), t in sorted(self.theta.items())
            ]
        return {
            "applicable": self.applicable,
            "positive": self.positive,
            "strictly_positive_theta": self.strictly_positive_theta,
            "theta": theta,
            "reason": self.reason,
        }


@dataclass
class Destabilizer:
    w_p: list
    w_q: list
    w_d: list
    margin: Fraction

    def flat(self):
        return list(self.w_p) + list(self.w_q) + list(self.w_d)

    def pairing(self, triple, sigma: Fraction) -> Fraction:
        """Exact value of w.(e^i; e^j; alpha - sigma 1_d) for one triple."""
        i, j, alpha = triple
        out = Fraction(self.w_p[i]) + Fraction(self.w_q[j])
        for k, a in enumerate(alpha):
            out += Fraction(self.w_d[k]) * (Fraction(a) - Fraction(sigma))
        return out

    def verify(self, E: SupportSet, sigma) -> bool:
        sigma = Fraction(sigma)
        return all(self.pairing(t, sigma) <= -self.margin for t in E.triples)

    def to_json(self) -> dict:
        enc = lambda xs: [{"num": Fraction(x).numerator,
                           "den": Fraction(x).denominator} for x in xs]
        return {
            "w_p": enc(self.w_p),
            "w_q": enc(self.w_q),
            "w_d": enc(self.w_d),
            "margin": {"num": self.margin.numerator, "den": self.margin.denominator},
        }


@dataclass
class MembershipResult:
    member: bool
    theta: list | None = None       # barycentric weights on the support triples
    separator: tuple | None = None  # ((w1; w2; w3), gap) with strict separation

    def to_json(self) -> dict:
        out = {"member": self.member}
        if self.theta is not None:
            out["theta"] = [
                {"num": t.numerator, "den": t.denominator} for t in self.theta
            ]
        if self.separator is not None:
            w, gap = self.separator
            out["separator"] = {
                "w": [{"num": v.numerator, "den": v.denominator} for v in w],
                "gap": {"num": gap.numerator, "den": gap.denominator},
            }
        return out


# -- support data ---------------------------------------------------------------


def _weight_matrix(basis: GradedBasis, p: int, q: int, sigma) -> np.ndarray:
    """Weight vectors v = (e^i; e^j; alpha - sigma 1_d) of every cell
    (i, j, alpha) of a dense p x q matrix, one row per cell in (i, j, grlex)
    order."""
    n, d = len(basis.alphas), basis.d
    V = np.zeros((p, q, n, p + q + d))
    for i in range(p):
        V[i, :, :, i] = 1.0
    for j in range(q):
        V[:, j, :, p + j] = 1.0
    V[..., p + q:] = basis.exps - float(sigma)
    return V.reshape(p * q * n, p + q + d)


def _cells(basis: GradedBasis, T: np.ndarray, V: np.ndarray):
    """(V, m) on the support: the weight rows and masses m = alpha! c^2 of
    the cells with a nonzero coefficient, for the squared norm written as an
    exponential sum over the support."""
    keep = T.ravel() != 0
    return V[keep], (basis.fac * T * T).ravel()[keep]


def _scaled_norm(V: np.ndarray, m: np.ndarray, w: LogWeights) -> float:
    if len(m) == 0:
        return 0.0
    return math.sqrt(float(np.sum(m * np.exp(2.0 * V @ w.flat()))))


def scaled_norm(P: PolyMatrix, w: LogWeights, sigma) -> float:
    """Norm after diagonal rescaling by exp(w), with the |det|^(-sigma) factor.

    Equals (sum over support of exp(2 w.(e^i;e^j;alpha-sigma 1_d)) alpha! c^2)^(1/2).
    """
    if len(w.w_p) != P.p or len(w.w_q) != P.q or len(w.w_d) != P.d:
        raise ValueError("weight dimensions do not match the matrix")
    basis, T = to_dense(P)
    return _scaled_norm(*_cells(basis, T, _weight_matrix(basis, P.p, P.q, sigma)), w)


# -- convex diagonal minimization -------------------------------------------------


def _traceless_basis(p: int, q: int, d: int) -> np.ndarray:
    """Orthonormal columns spanning {sum w_p = 0} x {sum w_q = 0} x R^d."""
    cols = []
    n = p + q + d

    def mean_zero_block(offset, size):
        if size <= 1:
            return
        # Helmert vectors: deterministic orthonormal basis of the mean-zero space
        for k in range(1, size):
            v = np.zeros(n)
            v[offset:offset + k] = 1.0
            v[offset + k] = -float(k)
            cols.append(v / np.linalg.norm(v))

    mean_zero_block(0, p)
    mean_zero_block(p, q)
    for k in range(d):
        v = np.zeros(n)
        v[p + q + k] = 1.0
        cols.append(v)
    return np.array(cols).T if cols else np.zeros((n, 0))


@dataclass
class DiagonalResult:
    value: float
    weights: LogWeights
    status: str
    iterations: int
    objective: float  # normalized squared objective at the final point


def minimize_diagonal(P: PolyMatrix, sigma, tol: float = DEFAULT_GRAD_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> DiagonalResult:
    """Damped Newton descent of the convex function w -> scaled_norm^2.

    The objective is normalized by ||P||^2 so the gradient tolerance is scale
    free.  Status is "converged" at a small projected gradient and
    "drift-to-zero" when the iterates run beyond ||w||_inf = 50 while the
    objective keeps decreasing (the infimum is then 0 along a ray).
    """
    p, q, d = P.p, P.q, P.d
    basis, T = to_dense(P)
    V, m = _cells(basis, T, _weight_matrix(basis, p, q, sigma))
    return _minimize(V, m, _traceless_basis(p, q, d), (p, q, d), tol, max_iter)


def _minimize(V: np.ndarray, m: np.ndarray, U: np.ndarray, dims, tol: float,
              max_iter: int) -> DiagonalResult:
    """:func:`minimize_diagonal` on the support (V, m), with U the
    traceless basis of the weights."""
    p, q, d = dims
    if len(m) == 0:
        return DiagonalResult(0.0, LogWeights.zeros(p, q, d), "converged", 0, 0.0)
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
    return DiagonalResult(value, split(w), status, it, f)


# -- frames ----------------------------------------------------------------------


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian with sign fix."""
    if n == 0:
        return np.zeros((0, 0))
    Z = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * np.sign(np.diag(R))


def cayley(S: np.ndarray) -> np.ndarray:
    n = S.shape[0]
    return np.linalg.solve(np.eye(n) - S, np.eye(n) + S)


def frame_element(frames) -> GroupElement:
    O1, O2, O3 = frames
    return GroupElement(O1, O2, O3, volume_preserving=False)


def group_value(P: PolyMatrix, g: GroupElement, sigma) -> float:
    """|det C|^(-sigma) ||rho_g P|| at an arbitrary group element."""
    return abs(g.det_C()) ** (-float(sigma)) * hs_norm(act_group(P, g))


@lru_cache(maxsize=None)
def _pairing_table(basis: GradedBasis):
    """Shift table of the derivative pairing: for each alpha and k1, k2 with
    alpha_k1 > 0, the cell k1*d + k2 of G3, the monomials alpha and
    alpha2 = alpha - e_k1 + e_k2, and the weight sqrt(alpha_k1 alpha2_k2
    alpha! alpha2!)."""
    d = basis.d
    slot, m1, m2, wt = [], [], [], []
    for m, a in enumerate(basis.alphas):
        for k1 in range(d):
            if a[k1] == 0:
                continue
            for k2 in range(d):
                a2 = list(a)
                a2[k1] -= 1
                a2[k2] += 1
                a2 = tuple(a2)
                slot.append(k1 * d + k2)
                m1.append(m)
                m2.append(basis.index[a2])
                wt.append(math.sqrt(a[k1] * a2[k2] * mi_factorial(a) * mi_factorial(a2)))
    return (np.array(slot, dtype=int), np.array(m1, dtype=int),
            np.array(m2, dtype=int), np.array(wt, dtype=float))


def _foc_matrices(basis: GradedBasis, T: np.ndarray, sigma: float):
    """Row-Gram, column-Gram and derivative-pairing residual matrices of the
    dense matrix T.

    These are the gradients of the squared norm along the three group
    directions; the flow that shrinks the norm moves against them.
    """
    p, q, _ = T.shape
    d = basis.d
    norm2 = float(np.sum(basis.fac * T * T))
    G1 = np.einsum("ijm,kjm,m->ik", T, T, basis.fac)
    G2 = np.einsum("ijm,ikm,m->jk", T, T, basis.fac)
    H = np.einsum("ijm,ijn->mn", T, T)
    slot, m1, m2, wt = _pairing_table(basis)
    G3 = np.bincount(slot, weights=wt * H[m1, m2], minlength=d * d).reshape(d, d)
    R1 = G1 - np.eye(p) * (norm2 / p)
    R2 = G2 - np.eye(q) * (norm2 / q)
    R3 = G3 - np.eye(d) * (sigma * norm2)
    return R1, R2, R3, norm2


def _residual(basis: GradedBasis, T: np.ndarray, sigma: float) -> float:
    R1, R2, R3, _ = _foc_matrices(basis, T, sigma)
    return math.sqrt((R1 ** 2).sum() + (R2 ** 2).sum() + (R3 ** 2).sum())


def _sym_expm(S: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    return (vecs * np.exp(vals)) @ vecs.T


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
        Tn = act_dense(basis, T, g.A, g.B, g.C) * abs(g.det_C()) ** (-sigma)
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


def _split_polar(A):
    """A = U D V^T; returns (log diag D recentred, V^T) so that the value at
    A is reproduced by diagonal weights over the orthogonal frame V^T."""
    U, s, Vt = np.linalg.svd(A)
    w = np.log(s)
    return w, Vt


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
        g = frame_element(frames)
        return act_dense(basis, T, g.A, g.B, g.C)

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


# -- first-order criticality ------------------------------------------------------


def _sqrtfree(n: int):
    """n = s^2 * r with r squarefree; returns (s, r)."""
    s, r, k = 1, 1, 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            s *= k
        if n % k == 0:
            n //= k
            r *= k
        k += 1
    return s, r * n


def criticality_residual(P: PolyMatrix, sigma) -> float:
    """Frobenius norm of the first-order-criticality residuals.

    Row Gram minus ||P||^2/p, column Gram minus ||P||^2/q, and the
    derivative-pairing tensor minus sigma ||P||^2 I.  Exact rational
    arithmetic throughout for rational input (irrational square roots are
    tracked by squarefree radicand), rounded only at the very end.  Float
    input uses the residual matrices that :func:`kempf_ness_polish` descends.
    """
    if P.exact:
        return _criticality_exact(P, Fraction(sigma))
    return _residual(*to_dense(P), float(sigma))


def _criticality_exact(P: PolyMatrix, sigma: Fraction) -> float:
    p, q, d = P.p, P.q, P.d
    tc = {}  # (i, j, alpha) -> d^alpha P_ij(0), exact
    for i in range(p):
        for j in range(q):
            for a, c in P.entries[i][j].terms.items():
                tc[(i, j, a)] = c * mi_factorial(a)
    norm2 = Fraction(0)
    for (i, j, a), v in tc.items():
        norm2 += v * v / mi_factorial(a)

    fro2 = Fraction(0)
    # rows
    for i1 in range(p):
        for i2 in range(p):
            s = Fraction(0)
            for j in range(q):
                for a in set(P.entries[i1][j].terms) & set(P.entries[i2][j].terms):
                    s += tc[(i1, j, a)] * tc[(i2, j, a)] / mi_factorial(a)
            if i1 == i2:
                s -= norm2 / p
            fro2 += s * s
    # columns
    for j1 in range(q):
        for j2 in range(q):
            s = Fraction(0)
            for i in range(p):
                for a in set(P.entries[i][j1].terms) & set(P.entries[i][j2].terms):
                    s += tc[(i, j1, a)] * tc[(i, j2, a)] / mi_factorial(a)
            if j1 == j2:
                s -= norm2 / q
            fro2 += s * s
    # derivative pairings: entries are sums of coeff * sqrt(radicand)
    extra = 0.0
    for k1 in range(d):
        for k2 in range(d):
            buckets: dict[int, Fraction] = {}
            for (i, j, a), v in tc.items():
                if a[k1] == 0:
                    continue
                a2 = list(a)
                a2[k1] -= 1
                a2[k2] += 1
                a2 = tuple(a2)
                v2 = tc.get((i, j, a2))
                if v2 is None:
                    continue
                rad = a[k1] * a2[k2] * mi_factorial(a) * mi_factorial(a2)
                s, r = _sqrtfree(rad)
                coeff = v * v2 * Fraction(s, mi_factorial(a) * mi_factorial(a2))
                buckets[r] = buckets.get(r, Fraction(0)) + coeff
            if k1 == k2:
                buckets[1] = buckets.get(1, Fraction(0)) - sigma * norm2
            if all(v == 0 for v in buckets.values()):
                continue
            val = sum(float(cf) * math.sqrt(r) for r, cf in buckets.items())
            extra += val * val
    return math.sqrt(float(fro2) + extra)


def _rescaled(basis: GradedBasis, T: np.ndarray, w: LogWeights, sigma) -> np.ndarray:
    g = GroupElement(np.diag(np.exp(w.w_p)), np.diag(np.exp(w.w_q)),
                     np.diag(np.exp(w.w_d)), volume_preserving=False)
    pref = math.exp(-float(sigma) * float(np.sum(w.w_d)))
    return act_dense(basis, T, g.A, g.B, g.C) * pref


def rescale_by_weights(P: PolyMatrix, w: LogWeights, sigma) -> PolyMatrix:
    """|det D3|^(-sigma) rho_(D1,D2,D3) P for D_k = exp(diag w_k)."""
    basis, T = to_dense(P)
    return from_dense(basis, _rescaled(basis, T, w, sigma))


# -- exact certificates ------------------------------------------------------------


def _coordinate_rows(E: SupportSet, sigma: Fraction):
    """Equality rows sum_t theta_t (e^i; e^j; alpha) = (1/p; 1/q; sigma)."""
    p, q, d = E.p, E.q, E.d
    n = len(E.triples)
    A = []
    b = []
    pts = E.weight_points()
    for coord in range(p + q + d):
        A.append([pts[t][coord] for t in range(n)])
        if coord < p:
            b.append(Fraction(1, p))
        elif coord < p + q:
            b.append(Fraction(1, q))
        else:
            b.append(sigma)
    A.append([Fraction(1)] * n)
    b.append(Fraction(1))
    return A, b


def polytope_membership(E: SupportSet, sigma) -> MembershipResult:
    """Exact membership of the balanced barycenter in the support hull.

    Returns barycentric weights on success; on failure, a separating
    functional (w1; w2; w3) with w.point < w.target - gap for every support
    point, gap > 0.
    """
    sigma = Fraction(sigma)
    p, q, d = E.p, E.q, E.d
    if len(E.triples) == 0:
        w = [Fraction(0)] * (p + q + d)
        return MembershipResult(member=False, separator=(w, Fraction(1)))
    A, b = _coordinate_rows(E, sigma)
    res = feasible_point(A, b)
    if res.status == "optimal":
        return MembershipResult(member=True, theta=res.x)
    y = res.farkas
    w = y[:p + q + d]
    target = [Fraction(1, p)] * p + [Fraction(1, q)] * q + [sigma] * d
    wt = sum(wi * ti for wi, ti in zip(w, target))
    worst = max(
        sum(wi * pi for wi, pi in zip(w, pt)) for pt in E.weight_points()
    )
    gap = wt - worst
    if gap <= 0:
        raise CertificateError("separator has no positive gap")
    return MembershipResult(member=False, separator=(w, gap))


def find_destabilizer(E: SupportSet, sigma, sigma_uniform: bool = False):
    """Maximize the margin m of w.(e^i; e^j; alpha - sigma 1_d) <= -m.

    Constraints: traceless w_p and w_q, ||w||_inf <= 1.  With
    ``sigma_uniform`` the variable part w_d is forced traceless as well, which
    makes the certificate independent of sigma (the pairings lose their sigma
    term).  Returns a Destabilizer when the optimal margin is positive, else
    None.  The optimal w is canonicalized by a secondary LP minimizing the
    l1 norm at the optimal margin, so certificates are deterministic.

    This certifies instability in the given coordinate frame only; frame
    search is the caller's job.
    """
    sigma = Fraction(sigma)
    p, q, d = E.p, E.q, E.d
    nw = p + q + d
    triples = E.triples
    nt = len(triples)
    if nt == 0:
        return Destabilizer([Fraction(0)] * p, [Fraction(0)] * q,
                            [Fraction(0)] * d, Fraction(1))

    # variables: u (nw) | v (nw) | m | slack_t (nt) | su (nw) | sv (nw)
    nvars = 2 * nw + 1 + nt + 2 * nw
    mcol = 2 * nw

    def pairing_row(t):
        i, j, alpha = triples[t]
        row = [Fraction(0)] * nvars
        coeffs = [Fraction(0)] * nw
        coeffs[i] += 1
        coeffs[p + j] += 1
        for k in range(d):
            coeffs[p + q + k] += Fraction(alpha[k]) - sigma
        for c in range(nw):
            row[c] = coeffs[c]
            row[nw + c] = -coeffs[c]
        row[mcol] = Fraction(1)
        row[mcol + 1 + t] = Fraction(1)
        return row

    def build(extra_rows=(), extra_b=()):
        A = [pairing_row(t) for t in range(nt)]
        b = [Fraction(0)] * nt
        for block, size in ((0, p), (p, q)) + (((p + q, d),) if sigma_uniform else ()):
            row = [Fraction(0)] * nvars
            for c in range(block, block + size):
                row[c] = Fraction(1)
                row[nw + c] = Fraction(-1)
            A.append(row)
            b.append(Fraction(0))
        for c in range(nw):
            row = [Fraction(0)] * nvars
            row[c] = Fraction(1)
            row[mcol + 1 + nt + c] = Fraction(1)
            A.append(row)
            b.append(Fraction(1))
            row = [Fraction(0)] * nvars
            row[nw + c] = Fraction(1)
            row[mcol + 1 + nt + nw + c] = Fraction(1)
            A.append(row)
            b.append(Fraction(1))
        A.extend(extra_rows)
        b.extend(extra_b)
        return A, b

    obj = [Fraction(0)] * nvars
    obj[mcol] = Fraction(1)
    A, b = build()
    res = solve_eq_lp(A, b, obj, maximize=True)
    if res.status != "optimal" or res.objective <= 0:
        return None
    mstar = res.objective

    # canonical representative: l1-minimal w on the optimal face
    pin = [Fraction(0)] * nvars
    pin[mcol] = Fraction(1)
    A2, b2 = build(extra_rows=[pin], extra_b=[mstar])
    l1 = [Fraction(0)] * nvars
    for c in range(2 * nw):
        l1[c] = Fraction(1)
    res2 = solve_eq_lp(A2, b2, l1, maximize=False)
    x = res2.x if res2.status == "optimal" else res.x
    w = [x[c] - x[nw + c] for c in range(nw)]
    dest = Destabilizer(w[:p], w[p:p + q], w[p + q:], mstar)
    if not dest.verify(E, sigma):
        raise CertificateError("destabilizer fails its exact check")
    return dest


def sparse_criterion(P: PolyMatrix, sigma) -> SparseVerdict:
    """Positivity by sparsity: one nonzero per row/column in each monomial
    slice, no adjacent multiindices inside one entry, and a rational convex
    combination of the support hitting the balanced barycenter."""
    if not P.exact:
        raise ValueError("sparse criterion needs exact coefficients")
    sigma = Fraction(sigma)
    p, q, d = P.p, P.q, P.d

    slices: dict[tuple, list] = {}
    for i in range(p):
        for j in range(q):
            for a in P.entries[i][j].terms:
                slices.setdefault(a, []).append((i, j))
    for a, cells in slices.items():
        rows = [i for i, _ in cells]
        cols = [j for _, j in cells]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            return SparseVerdict(False, False,
                                 reason=f"monomial {a} collides in a row or column")
    for i in range(p):
        for j in range(q):
            alphas = list(P.entries[i][j].terms)
            for x in range(len(alphas)):
                for y in range(x + 1, len(alphas)):
                    a1, a2 = alphas[x], alphas[y]
                    diff = [u - v for u, v in zip(a1, a2)]
                    pos = [k for k, v in enumerate(diff) if v > 0]
                    neg = [k for k, v in enumerate(diff) if v < 0]
                    if (len(pos) == 1 and len(neg) == 1
                            and diff[pos[0]] == 1 and diff[neg[0]] == -1):
                        return SparseVerdict(
                            False, False,
                            reason=f"entry ({i},{j}) has adjacent multiindices "
                                   f"{a1} and {a2}")

    E = support_set(P)
    member = polytope_membership(E, sigma)
    if not member.member:
        return SparseVerdict(True, False, reason="barycenter outside support hull")
    theta = dict(zip(E.triples, member.theta))

    # strictly positive theta: maximize the floor of the weights
    A, b = _coordinate_rows(E, sigma)
    n = len(E.triples)
    # variables: theta (n) | eps | slack_t (theta_t - eps - s_t = 0)
    nvars = n + 1 + n
    A2 = [row + [Fraction(0)] * (1 + n) for row in A]
    b2 = list(b)
    for t in range(n):
        row = [Fraction(0)] * nvars
        row[t] = Fraction(1)
        row[n] = Fraction(-1)
        row[n + 1 + t] = Fraction(-1)
        A2.append(row)
        b2.append(Fraction(0))
    obj = [Fraction(0)] * nvars
    obj[n] = Fraction(1)
    res = solve_eq_lp(A2, b2, obj, maximize=True)
    strict = res.status == "optimal" and res.objective > 0
    if strict:
        theta = dict(zip(E.triples, res.x[:n]))
    return SparseVerdict(True, True, theta=theta, strictly_positive_theta=strict)


def feasible_sigma_interval(E: SupportSet):
    """Range of sigma for which the balanced barycenter stays in the hull.

    The LP treats sigma as a free variable; returns (low, high) as exact
    rationals, or None when no sigma is feasible.
    """
    p, q, d = E.p, E.q, E.d
    n = len(E.triples)
    if n == 0:
        return None
    pts = E.weight_points()
    # variables: theta (n) | sigma
    A = []
    b = []
    for coord in range(p + q + d):
        row = [pts[t][coord] for t in range(n)] + [Fraction(0)]
        if coord >= p + q:
            row[n] = Fraction(-1)
            b.append(Fraction(0))
        else:
            b.append(Fraction(1, p) if coord < p else Fraction(1, q))
        A.append(row)
    A.append([Fraction(1)] * n + [Fraction(0)])
    b.append(Fraction(1))
    obj = [Fraction(0)] * n + [Fraction(1)]
    lo = solve_eq_lp(A, b, obj, maximize=False)
    if lo.status != "optimal":
        return None
    hi = solve_eq_lp(A, b, obj, maximize=True)
    return (lo.objective, hi.objective)
