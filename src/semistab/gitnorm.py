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
* a deterministic critical-point search (upper bounds): damped Newton on the
  convex diagonal problem, then geodesic Newton on the full group, stopping
  at the first point whose criticality residual is at most 1e-9 times the
  value squared, which by Kempf--Ness is the minimum.  Every threshold on
  the way is relative, so nothing depends on the scale of P or the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lp import CertificateError, feasible_point, solve_eq_lp
from .polycore import (
    FloatRangeError,
    GradedBasis,
    GroupElement,
    PolyMatrix,
    SupportSet,
    _invertible,
    _shift,
    act_dense,
    act_group,
    balanced_rows,
    fraction_to_json,
    from_dense,
    hs_norm,
    support_set,
    to_dense,
)

DRIFT_WALL = 50.0          # log-scale past which a search counts as running off
FOC_TARGET_REL = 1e-9      # converged: criticality residual <= this * value^2
GRAD_TOL = 1e-10           # on the gradient of the log of the diagonal objective
MAX_ITER = 200
POLISH_STEPS = 30
POLISH_REACH = 4.0         # largest log-scale of one polish step
TINY = float(np.finfo(float).tiny)  # the smallest normal float


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


def theta_to_json(theta: dict) -> list:
    """Convex weights {(i, j, alpha): Fraction} as a list sorted by cell."""
    return [{"i": i, "j": j, "alpha": list(a), **fraction_to_json(t)}
            for (i, j, a), t in sorted(theta.items())]


@dataclass
class Destabilizer:
    w_p: list
    w_q: list
    w_d: list
    margin: Fraction

    def flat(self):
        return list(self.w_p) + list(self.w_q) + list(self.w_d)

    def verify(self, E: SupportSet, sigma) -> bool:
        """Whether w.(e^i; e^j; alpha - sigma 1_d) <= -margin on every triple
        of E, compared exactly over one common positive denominator."""
        sigma = Fraction(sigma)
        w = [Fraction(v) for v in self.flat()] + [Fraction(self.margin)]
        L = math.lcm(*(v.denominator for v in w))
        W = [v.numerator * (L // v.denominator) for v in w]
        p, q = len(self.w_p), len(self.w_q)
        Wd = W[p + q:-1]
        # L sd w.(e^i; e^j; alpha - sigma 1_d) for sigma = sn / sd
        sn, sd = sigma.numerator, sigma.denominator
        shift, bound = sn * sum(Wd), -sd * W[-1]
        return all(sd * (W[i] + W[p + j] + sum(v * a for v, a in zip(Wd, alpha))) - shift
                   <= bound for i, j, alpha in E.triples)

    def to_json(self) -> dict:
        enc = lambda xs: [fraction_to_json(x) for x in xs]
        return {
            "w_p": enc(self.w_p),
            "w_q": enc(self.w_q),
            "w_d": enc(self.w_d),
            "margin": fraction_to_json(self.margin),
        }


@dataclass
class MembershipResult:
    member: bool
    theta: list | None = None       # barycentric weights on the support triples
    separator: tuple | None = None  # ((w1; w2; w3), gap) with strict separation

    def to_json(self) -> dict:
        out = {"member": self.member}
        if self.theta is not None:
            out["theta"] = [fraction_to_json(t) for t in self.theta]
        if self.separator is not None:
            w, gap = self.separator
            out["separator"] = {
                "w": [fraction_to_json(v) for v in w],
                "gap": fraction_to_json(gap),
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


def _dense_in_range(P: PolyMatrix):
    """(basis, T, e): T the dense coefficients of P / 2^e, whose nonzero masses
    alpha! c^2 are normal floats: e = 0 if P's are, else the binary exponent of
    the largest |c|.  FloatRangeError if neither e does, or if a nonzero c is 0
    or subnormal as a float (a c whose mass is normal is, below degree 170)."""
    basis, T = to_dense(P)
    keep, S, e = T != 0, T, 0
    if np.count_nonzero(keep) == sum(len(x.terms) for row in P.entries for x in row):
        for rescale in (True, False):
            with np.errstate(over="ignore"):
                m = (basis.fac * S * S)[keep]
            if m.size == 0 or TINY <= m.min() and m.max() < math.inf:
                return basis, S, e
            if not rescale or np.abs(T[keep]).min() < TINY:
                break
            e = math.frexp(np.abs(T).max())[1]
            S = np.ldexp(T, -e)
    raise FloatRangeError("a coefficient is not a normal float, or no power of two "
                          "brings every nonzero mass alpha! c^2 into the float range")


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


def minimize_diagonal(P: PolyMatrix, sigma) -> DiagonalResult:
    """Damped Newton descent of the convex function
    w -> ||rescale_by_weights(P, w, sigma)||^2.

    The stopping test is on the gradient of the logarithm of the objective,
    so it does not depend on the scale of P or of the value.  Status is
    "converged" at a small gradient and "drift-to-zero" when every term of
    the sum has shrunk by e^-50 or more, or when the weights pass 10 * 50
    with every term shrinking along them (the infimum is then 0 along a
    ray); weights past 10 * 50 otherwise are an unattained positive
    infimum, "budget-exhausted".  Like :func:`git_norm`, it descends on
    P / 2^e (or raises FloatRangeError) and reports the value times 2^e.
    """
    p, q, d = P.p, P.q, P.d
    basis, T, e = _dense_in_range(P)
    V, m = _cells(basis, T, _weight_matrix(basis, p, q, sigma))
    res = _minimize(V, m, _traceless_basis(p, q, d), (p, q, d))
    if e:
        with np.errstate(over="ignore"):  # a value past the float range is inf
            res.value = float(np.ldexp(res.value, e))
    return res


def _minimize(V: np.ndarray, m: np.ndarray, U: np.ndarray, dims) -> DiagonalResult:
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
    for it in range(1, MAX_ITER + 1):
        s = VU @ y
        if f == 0.0 or s.max() <= -DRIFT_WALL:
            # every term has shrunk by e^-DRIFT_WALL or more: the weights run
            # off along a ray on which the value tends to zero
            status = "drift-to-zero"
            break
        e = mh * np.exp(2.0 * s)
        g = 2.0 * (VU.T @ e)
        if np.abs(g).max() <= GRAD_TOL * f:  # the gradient of log f
            status = "converged"
            break
        if np.abs(U @ y).max() > 10 * DRIFT_WALL:
            # the weights run off: along a ray to zero when every pairing is
            # negative (each term keeps shrinking along w), otherwise towards
            # an unattained positive infimum (e.g. triangular constants)
            if s.max() <= -1.0:
                status = "drift-to-zero"
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
            # the expansion stops at weights of 10 * DRIFT_WALL: farther out,
            # the pairings v.w lose the digits the value is made of
            while np.abs(U @ (y + 2.0 * t * step)).max() <= 10 * DRIFT_WALL:
                fbig = fval(y + 2.0 * t * step)
                if not fbig < fnew:
                    break
                t *= 2.0
                fnew = fbig
        elif -(g @ step) <= 1e-13 * f and fnew <= f * (1 + 1e-13):
            pass  # a decrease below round-off, which f cannot show: take it whole
        else:
            for _ in range(60):
                t *= 0.5
                fnew = fval(y + t * step)
                if fnew < f:
                    break
            else:
                status = "converged"  # numerically stationary
                break
        y = y + t * step
        f = fnew
    w = U @ y
    value = math.sqrt(f * total)
    return DiagonalResult(value, split(w), status, it)


# -- frames ----------------------------------------------------------------------


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian with sign fix."""
    if n == 0:
        return np.zeros((0, 0))
    Z = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * np.sign(np.diag(R))


def group_value(P: PolyMatrix, g: GroupElement, sigma) -> float:
    """|det C|^(-sigma) ||rho_g P|| at an arbitrary group element."""
    return abs(g.det_C()) ** (-float(sigma)) * hs_norm(act_group(P, g))


@lru_cache(maxsize=None)
def _derivations(basis: GradedBasis) -> np.ndarray:
    """Z with Z[k, l] the matrix of z_l d_k on the monomial axis: the column
    of alpha holds alpha_k in the row of alpha - e_k + e_l.  These are the
    infinitesimal variable changes, and the derivative pairing of the norm
    is G3[k, l] = <Z[k, l] T, T>."""
    d, n = basis.d, len(basis.alphas)
    Z = np.zeros((d, d, n, n), dtype=int)
    for m, a in enumerate(basis.alphas):
        for k in range(d):
            for l in range(d if a[k] else 0):
                Z[k, l, basis.index[_shift(_shift(a, k, -1), l, 1)], m] = a[k]
    Z.flags.writeable = False  # shared by every caller through the cache
    return Z


def _foc_matrices(basis: GradedBasis, T: np.ndarray, sigma):
    """Row-Gram, column-Gram and derivative-pairing residual matrices of the
    dense matrix T.

    These are the gradients of the squared norm along the three group
    directions; the flow that shrinks the norm moves against them.  They are
    computed in the dtype of T: the alpha! weights and Z are integers, so an
    object array of Fractions with a rational sigma gives them exactly.
    """
    p, q, _ = T.shape
    d = basis.d
    norm2 = np.sum(basis.fac * T * T)
    G1 = np.einsum("ijm,kjm,m->ik", T, T, basis.fac)
    G2 = np.einsum("ijm,ikm,m->jk", T, T, basis.fac)
    X = T.reshape(p * q, -1)
    H = (X * basis.fac).T @ X
    G3 = (_derivations(basis).reshape(d * d, -1) @ H.ravel()).reshape(d, d)
    R1 = G1 - np.eye(p, dtype=T.dtype) * (norm2 / p)
    R2 = G2 - np.eye(q, dtype=T.dtype) * (norm2 / q)
    R3 = G3 - np.eye(d, dtype=T.dtype) * (sigma * norm2)
    return R1, R2, R3, norm2


def _residual(basis: GradedBasis, T: np.ndarray, sigma) -> float:
    R1, R2, R3, _ = _foc_matrices(basis, T, sigma)
    return math.sqrt((R1 ** 2).sum() + (R2 ** 2).sum() + (R3 ** 2).sum())


def _sym_expm(S: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    return (vecs * np.exp(vals)) @ vecs.T


@lru_cache(maxsize=None)
def _off_diagonal(n: int) -> np.ndarray:
    """The symmetric generators E_ab + E_ba, a < b, stacked."""
    G = np.zeros((n * (n - 1) // 2, n, n))
    for g, (a, b) in enumerate((a, b) for a in range(n) for b in range(a + 1, n)):
        G[g, a, b] = G[g, b, a] = 1.0
    G.flags.writeable = False  # shared by every caller through the cache
    return G


def _newton_direction(basis: GradedBasis, T: np.ndarray, VU: np.ndarray,
                      U: np.ndarray):
    """The geodesic Newton direction (X1, X2, X3) of the squared norm at T.

    Along t -> exp(tX), with X symmetric and X1, X2 traceless, the squared
    norm has first derivative 2<JX, T> and second derivative 4||JX||^2 at
    0, where JX = rho_*(X) T - sigma tr(X3) T and the inner product carries
    the alpha! weights (rho_* of a symmetric X is self-adjoint for it).  The
    Newton step is therefore X = -1/2 argmin ||JX - T||, one least-squares
    solve.  Coordinates: U for the diagonal parts (its columns already carry
    the sigma twist through the weight rows VU), then the off-diagonal
    generators of the rows, the columns and the variables.
    """
    p, q, n = T.shape
    G = [_off_diagonal(k) for k in (p, q, basis.d)]
    cols = [(VU * T.reshape(-1, 1)).T,
            np.einsum("gik,kjm->gijm", G[0], T),
            np.einsum("gjk,ikm->gijm", G[1], T),
            np.einsum("gnm,ijm->gijn",
                      np.einsum("gkl,klnm->gnm", G[2], _derivations(basis)), T)]
    root = np.sqrt(basis.fac)
    J = np.concatenate([c.reshape(len(c), p, q, n) * root for c in cols])
    x = -0.5 * np.linalg.lstsq(J.reshape(len(J), -1).T, (T * root).ravel(),
                               rcond=None)[0]
    x = np.split(x, np.cumsum([len(c) for c in cols[:-1]]))
    return [np.diag(wk) + np.tensordot(xk, Gk, 1)
            for wk, xk, Gk in zip(np.split(U @ x[0], [p, p + q]), x[1:], G)]


def kempf_ness_polish(basis: GradedBasis, T: np.ndarray, sigma: float):
    """At most POLISH_STEPS geodesic Newton steps (:func:`_newton_direction`)
    on |det C|^(-2 sigma) ||rho_(A,B,C) T||^2 over the full group, from the
    identity.  A step longer than entries of 1 is cut back to them and then
    doubled, up to POLISH_REACH, while the value falls; any step is halved
    until the value falls.  Returns the element h, |det h_3|^(-sigma) rho_h T
    and how the descent ended: "critical" (residual at most FOC_TARGET_REL
    times the value squared), "drift-to-zero" (a log singular value of h
    past DRIFT_WALL, or h_3 numerically singular), "moved" (out of steps)
    or "stuck" (no step lowered the value).
    """
    p, q, _ = T.shape
    d = basis.d
    U = _traceless_basis(p, q, d)
    VU = _weight_matrix(basis, p, q, sigma) @ U
    h = [np.eye(p), np.eye(q), np.eye(d)]
    norm2 = lambda X: float(np.sum(basis.fac * X * X))

    def trial(X, t):
        E = [_sym_expm(t * Xk) for Xk in X]
        Tt = act_dense(basis, T, *E) * math.exp(-sigma * t * np.trace(X[2]))
        ft = norm2(Tt)
        # 0 is round-off (no group element reaches it); inf and nan overflow
        return E, Tt, ft if 0.0 < ft < math.inf else math.inf

    f = norm2(T)
    outcome = "stuck"
    for _ in range(POLISH_STEPS):
        X = _newton_direction(basis, T, VU, U)
        reach = max(np.abs(Xk).max(initial=0.0) for Xk in X)
        if reach > 1.0:
            # a flat direction: steps of entries 1, doubled while the value falls
            X = [Xk / reach for Xk in X]
        t, (E, Tt, ft) = 1.0, trial(X, 1.0)
        while reach > 1.0 and ft < f and 2.0 * t <= POLISH_REACH:
            E2, T2, f2 = trial(X, 2.0 * t)
            if not f2 < ft:
                break
            t, E, Tt, ft = 2.0 * t, E2, T2, f2
        while ft > f * (1 + 1e-12) and t > 1e-9:
            t *= 0.5
            E, Tt, ft = trial(X, t)
        if ft > f * (1 + 1e-12):
            break
        h = [Ek @ hk for Ek, hk in zip(E, h)]
        T, f, outcome = Tt, ft, "moved"
        if (max(np.abs(_log_scales(hk)).max(initial=0.0) for hk in h) > DRIFT_WALL
                or not _invertible(h[2])):
            return h, T, "drift-to-zero"
        if _residual(basis, T, sigma) <= FOC_TARGET_REL * f:
            return h, T, "critical"
    return h, T, outcome


def _log_scales(M: np.ndarray) -> np.ndarray:
    """Logarithms of the singular values of M, a 0 read as the smallest
    normal float."""
    return np.log(np.maximum(np.linalg.svd(M, compute_uv=False), TINY))


def git_norm(P: PolyMatrix, sigma, restarts: int = 0, budget: int = 400,
             seed: int = 0) -> GitEstimate:
    """Deterministic critical-point search for the group-invariant norm.

    Each round is one inner solve, the diagonal Newton problem, in the
    identity frame first.  The search stops when the criticality residual
    of the rescaled matrix is at most FOC_TARGET_REL times the value
    squared: by Kempf--Ness a critical point of the norm on the orbit is its
    minimum.  Otherwise :func:`kempf_ness_polish` descends on the full group
    from there, and unless it runs off, the next round continues where it
    stopped (a critical point is certified there by the next inner solve),
    in the principal axes (left polar factors) of the element it moved by.
    The value and residual are those of the matrix carried along; frames
    and weights are the polar decomposition of the whole element.

    Status: "converged" only when the residual meets the target;
    "drift-to-zero" when :func:`minimize_diagonal` or the polish drifts, or
    the whole element passes log-scale DRIFT_WALL; otherwise
    "budget-exhausted" after ``budget`` inner solves or diagonal weights
    past DRIFT_WALL.  The value is always an upper bound.  ``restarts`` and
    ``seed`` have no effect (the search is deterministic); they are accepted
    so that existing callers keep working.

    The search works with the masses alpha! c^2 of P / 2^e, e = 0 if P's are
    normal floats, else the binary exponent of the largest |c|, and reports the
    value times 2^e and the residual times 4^e.  It raises FloatRangeError
    before searching when neither e gives normal masses of normal floats c.
    """
    p, q, d = P.p, P.q, P.d
    frames = (np.eye(p), np.eye(q), np.eye(d))
    basis, Tc, e = _dense_in_range(P)
    if not Tc.any():
        return GitEstimate(0.0, "converged", LogWeights.zeros(p, q, d), frames, 0.0, 0)
    sigma = float(sigma)
    V = _weight_matrix(basis, p, q, sigma)
    U = _traceless_basis(p, q, d)
    parts = lambda w: (w.w_p, w.w_q, w.w_d)
    # Tc is |det g_3|^(-sigma) rho_g P; g None is the identity
    g, evals = None, 0
    while True:
        evals += 1
        inner = _minimize(*_cells(basis, Tc, V), U, (p, q, d))
        value, weights = inner.value, inner.weights
        Tn = _diag_rescaled(Tc, V, weights)
        foc = _residual(basis, Tn, sigma)
        if inner.status == "drift-to-zero":
            status = "drift-to-zero"
            break
        if foc <= FOC_TARGET_REL * value ** 2:
            status = "converged"
            break
        if evals >= budget or weights.inf_norm() > DRIFT_WALL:
            status = "budget-exhausted"
            break
        h, Th, polish = kempf_ness_polish(basis, Tn, sigma)
        if polish == "stuck":
            status = "budget-exhausted"
            break
        R = [np.linalg.svd(hk)[0].T for hk in h]
        g = [Rk @ hk @ (np.exp(wk)[:, None] * gk) for Rk, hk, wk, gk in
             zip(R, h, parts(weights), g or frames)]
        Tc = act_dense(basis, Th, *R)
        value = math.sqrt(float(np.sum(basis.fac * Tc * Tc)))
        weights = LogWeights.zeros(p, q, d)
        if polish == "drift-to-zero" or max(np.abs(_log_scales(gk)).max(initial=0.0)
                                            for gk in g) > DRIFT_WALL:
            status = "drift-to-zero"
            foc = _residual(basis, Tc, sigma)
            break
    if g is not None:
        # the polar decomposition g_k = O_k diag(e^(w_k)) F_k, O_k orthogonal
        g = [np.exp(wk)[:, None] * gk for wk, gk in zip(parts(weights), g)]
        frames = tuple(np.linalg.svd(gk)[2] for gk in g)
        w1, w2, w3 = (_log_scales(gk) for gk in g)
        weights = LogWeights(w1 - w1.mean(), w2 - w2.mean(), w3)
    if e:
        with np.errstate(over="ignore"):  # a residual past the float range is inf
            value, foc = float(np.ldexp(value, e)), float(np.ldexp(foc, 2 * e))
    return GitEstimate(value, status, weights, frames, foc, evals)


# -- first-order criticality ------------------------------------------------------


def criticality_residual(P: PolyMatrix, sigma) -> float:
    """Frobenius norm of the first-order-criticality residuals.

    Row Gram minus ||P||^2/p, column Gram minus ||P||^2/q, and the
    derivative-pairing tensor minus sigma ||P||^2 I: the residual matrices
    of :func:`_foc_matrices`, which :func:`kempf_ness_polish` descends.
    Rational input is computed in exact arithmetic, rounded only at the end.
    """
    if P.exact:
        return _residual(*to_dense(P, object), Fraction(sigma))
    return _residual(*to_dense(P), float(sigma))


def _diag_rescaled(T: np.ndarray, V: np.ndarray, w: LogWeights) -> np.ndarray:
    """|det D3|^(-sigma) rho_(D1,D2,D3) T for D_k = exp(diag w_k), cell by
    cell: each coefficient times e^(w.v) for its weight row v in V."""
    out = np.zeros_like(T)
    keep = T != 0
    out[keep] = T[keep] * np.exp(V[keep.ravel()] @ w.flat())
    return out


def rescale_by_weights(P: PolyMatrix, w: LogWeights, sigma) -> PolyMatrix:
    """|det D3|^(-sigma) rho_(D1,D2,D3) P for D_k = exp(diag w_k)."""
    basis, T = to_dense(P)
    return from_dense(basis, _diag_rescaled(T, _weight_matrix(basis, P.p, P.q, sigma), w))


# -- exact certificates ------------------------------------------------------------


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
    A, b = balanced_rows(E.weight_points(), (p, q, d), p, q, sigma)
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
    None.  The optimal w is the l1-minimal one on the margin's optimal
    face (the LP's second cost), so certificates are deterministic.

    One exact LP in w = u - v with u, v in [0, 1]: one row per support triple,
    one per traceless block, and the box rows with their slacks.  Its rows
    and both costs are ints, except the alpha - sigma columns of the triple
    rows, where sigma enters as a Fraction.  The certificate is checked over
    one common denominator (``Destabilizer.verify``) before it is returned.

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

    A, b = [], []
    for t, (i, j, alpha) in enumerate(triples):  # pairing + m + slack_t = 0
        coeffs = [0] * (p + q) + [a - sigma for a in alpha]
        coeffs[i] += 1
        coeffs[p + j] += 1
        row = coeffs + [-v for v in coeffs] + [0] * (nvars - 2 * nw)
        row[mcol] = row[mcol + 1 + t] = 1
        A.append(row)
        b.append(0)
    for block, size in ((0, p), (p, q)) + (((p + q, d),) if sigma_uniform else ()):
        row = [int(block <= c < block + size) for c in range(nw)]
        A.append(row + [-v for v in row] + [0] * (nvars - 2 * nw))
        b.append(0)
    for c in range(nw):
        for k in (c, nw + c):  # u_c + su_c = 1, then v_c + sv_c = 1
            row = [0] * nvars
            row[k] = row[mcol + 1 + nt + k] = 1
            A.append(row)
            b.append(1)

    # maximize m; canonical representative: l1-minimal w on the optimal face
    obj = [int(c == mcol) for c in range(nvars)]
    l1 = [int(c < 2 * nw) for c in range(nvars)]
    res = solve_eq_lp(A, b, obj, maximize=True, c2=l1)
    if res.status != "optimal" or res.objective <= 0:
        return None
    w = [res.x[c] - res.x[nw + c] for c in range(nw)]
    dest = Destabilizer(w[:p], w[p:p + q], w[p + q:], res.objective)
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

    # barycentric weights theta with the largest floor eps >= 0; the LP is
    # infeasible exactly when the barycenter is outside the support hull
    E = support_set(P)
    A, b = balanced_rows(E.weight_points(), (p, q, d), p, q, sigma)
    n = len(E.triples)
    # variables: theta (n) | eps | slack_t (theta_t - eps - s_t = 0)
    nvars = n + 1 + n
    A2 = [row + [0] * (1 + n) for row in A]
    b2 = list(b)
    for t in range(n):
        row = [0] * nvars
        row[t] = 1
        row[n] = row[n + 1 + t] = -1
        A2.append(row)
        b2.append(0)
    obj = [0] * nvars
    obj[n] = 1
    res = solve_eq_lp(A2, b2, obj, maximize=True)
    if res.status != "optimal":
        return SparseVerdict(True, False, reason="barycenter outside support hull")
    return SparseVerdict(True, True, theta=dict(zip(E.triples, res.x[:n])),
                         strictly_positive_theta=res.objective > 0)


def feasible_sigma_interval(E: SupportSet):
    """Range of sigma for which the balanced barycenter stays in the hull.

    The LP treats sigma as a free variable; returns (low, high) as exact
    rationals, or None when no sigma is feasible.
    """
    p, q, d = E.p, E.q, E.d
    n = len(E.triples)
    if n == 0:
        return None
    A, b = balanced_rows(E.weight_points(), (p, q, d), p, q)
    obj = [0] * n + [1]
    lo = solve_eq_lp(A, b, obj, maximize=False)
    if lo.status != "optimal":
        return None
    hi = solve_eq_lp(A, b, obj, maximize=True)
    return (lo.objective, hi.objective)
