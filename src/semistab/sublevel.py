"""Estimation of uniform sublevel-set integrals.

The integrand is w(t) / ||u(t)||_omega^tau where u(t) is the row family of
an incidence matrix, omega a volume-one basis, and w a weight (typically a
product of tile-map group norms).  u(t) is a decomposable p-form, and its
omega-norm is the length of its Plücker vector (:func:`plucker_evaluator`);
no Gram matrix squares the condition number of M(t) omega, so a norm is 0
only where u(t) vanishes.  The C(q, p) maximal minors come from
:func:`semistab.blockdecomp.maximal_minors`, once per family; per basis the
rows of Lambda^p(omega) that they meet come from a Laplace expansion whose
index arrays are cached per row sets, and the evaluator writes each block's
monomial table and GEMM into one buffer it owns.  C(q, p) grows fast; the
shapes here are small (m61 has 126 minors, 48 nonzero, the line family 2),
and a shape with thousands should be measured against a QR of
(M(t) omega)^T per sample before it takes this path.

Both estimators are deterministic.  Plain Monte Carlo draws its points from
counter-mode Philox streams keyed by the master seed and merges chunk sums
by exact float summation.  The adaptive cubature (:func:`_cubature`) uses
no randomness: it refines cells of a tensor Gauss-Legendre rule pair in an
order fixed by their error estimates and corners, and its error estimate is
a rule difference, not a standard error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .blockdecomp import BlockDecomposition, _tile_block, maximal_minors, reduced_matrix
from .gitnorm import git_norm, haar_orthogonal
from .polycore import Poly, PolyMatrix, to_dense


@dataclass
class OmegaBasis:
    """A volume-one basis of R^q; column k of ``columns`` is omega^k."""

    columns: np.ndarray
    log_scale: np.ndarray

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=float)
        if not np.isfinite(self.columns).all():
            raise ValueError("omega has an entry that is not a finite float")
        det = np.linalg.det(self.columns)
        if abs(abs(det) - 1.0) > 1e-8:
            raise ValueError(f"|det omega| = {abs(det)} is not 1")


@dataclass
class IntegralEstimate:
    value: float
    std_error: float
    samples: int
    flagged: int
    domain: tuple
    seed: int

    def to_json(self):
        return {
            "value": self.value,
            "std_error": self.std_error,
            "samples": self.samples,
            "flagged": self.flagged,
            "domain": [list(map(float, iv)) for iv in self.domain],
            "seed": self.seed,
        }


# the log of the largest float: exp(w) is finite for |w| up to it
MAX_LOG_SCALE = math.log(np.finfo(float).max)


def sample_omega(seed: int, scale_max: float, q: int) -> OmegaBasis:
    """Anisotropic volume-one basis O1 exp(diag w) O2.

    The orthogonal factors are Haar-ish (QR of a Gaussian with sign fix);
    w is uniform on the traceless part of the cube [-scale_max, scale_max]^q,
    drawn by rejection.  The determinant is renormalized to +-1 at the end
    to mop up rounding.  ValueError unless 0 <= scale_max <= MAX_LOG_SCALE,
    or when the basis that comes out is not volume one in floats.
    """
    if not 0 <= scale_max <= MAX_LOG_SCALE:
        raise ValueError(f"scale_max must lie in [0, {MAX_LOG_SCALE:.6g}]")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    O1 = haar_orthogonal(rng, q)
    O2 = haar_orthogonal(rng, q)
    while True:
        w = rng.uniform(-scale_max, scale_max, size=q)
        w -= w.mean()
        if scale_max == 0 or np.abs(w).max() <= scale_max:
            break
    with np.errstate(over="ignore", invalid="ignore"):  # OmegaBasis rejects inf and nan
        M = O1 @ np.diag(np.exp(w)) @ O2
        sign, logdet = np.linalg.slogdet(M)
        if abs(logdet) < MAX_LOG_SCALE:  # else |det| is far from 1, and OmegaBasis says so
            M *= math.exp(-logdet / q)
    return OmegaBasis(M, w)


# -- the Plücker norm ----------------------------------------------------------------


@lru_cache(maxsize=16)
def _minor_table(key):
    """(basis, nonzero, C, e) for the row family with terms ``key``, or None
    when it has no nonzero maximal minor.  The minor over the column subset
    ``nonzero[k]`` (a tuple of p-tuples) is sum_alpha C[alpha, k] 2^e z^alpha
    over ``basis``, with max |C| in [1/2, 1); a coefficient past the float
    range raises FloatRangeError."""
    d, rows = key
    M = PolyMatrix([[Poly(d, dict(terms)) for terms in row] for row in rows])
    minors = {S: m for S, m in maximal_minors(M).items() if not m.is_zero()}
    if not minors:
        return None
    basis, T = to_dense(PolyMatrix([list(minors.values())]))
    C = T[0].T
    e = math.frexp(np.abs(C).max())[1]
    return basis, tuple(minors), np.ldexp(C, -e), e


@lru_cache(maxsize=16)
def _laplace_plan(q: int, rowsets: tuple) -> list:
    """Index arrays that build the rows ``rowsets`` (p-subsets of range(q))
    of Lambda^p(omega), the p x p minors of a q x q omega, by Laplace
    expansion along the rows: one (rows, T, subs, drop, sign) per level
    k = 1 .. p.

    Level k holds the k x k minors of omega over the length-k suffixes u of
    the row sets (sorted below level p; at level p the row sets themselves,
    in their order) and over every k-subset T of columns in combinations
    order, as an (n_u, C(q, k)) array.  Its minor (u, T) is
    sum_i sign[i] omega[u_0, T_i] minor(u[1:], T - T_i): ``rows`` holds
    each u_0 and ``subs`` the row of u[1:] in the level below, ``drop`` the
    column there of each T - T_i; the index arrays broadcast to
    (n_u, C(q, k), k).
    """
    p = len(rowsets[0])
    suffixes, levels = [()], []
    for k in range(1, p + 1):
        below = {u: m for m, u in enumerate(suffixes)}
        suffixes = list(rowsets) if k == p else sorted({S[p - k:] for S in rowsets})
        T = list(itertools.combinations(range(q), k))
        pos = {t: c for c, t in enumerate(itertools.combinations(range(q), k - 1))}
        rows = np.array([u[0] for u in suffixes])[:, None, None]
        subs = np.array([below[u[1:]] for u in suffixes])[:, None, None]
        drop = np.array([[pos[t[:i] + t[i + 1:]] for i in range(k)] for t in T])
        levels.append((rows, np.array(T), subs, drop, (-1.0) ** np.arange(k)))
    return levels


def _compound(cols: np.ndarray, plan: list) -> np.ndarray:
    """The rows of Lambda^p(cols) that ``plan`` (:func:`_laplace_plan`)
    builds: one gathered multiply-sum per level."""
    minors = np.ones((1, 1))
    for rows, T, subs, drop, sign in plan:
        minors = (cols[rows, T] * minors[subs, drop]) @ sign
    return minors


def plucker_evaluator(M: PolyMatrix, omega):
    """callable mapping points (n, d) to the omega-norms of u(t), M's rows.

    The norm of the decomposable form u(t) is the length of its Plücker
    vector in the basis omega: the maximal minors of G = M(t) omega, which by
    Cauchy-Binet are m(t) Lambda^p(omega), m(t) being M's maximal minors and
    Lambda^p(omega) the p x p minors of omega.  The minors of M are exact
    polynomials, built once per family (cached); per basis, the rows of
    Lambda^p(omega) where m(t) is not zero come from a Laplace expansion
    whose index arrays are cached per row sets (:func:`_laplace_plan`), and
    W = C Lambda^p(omega) reduces by one QR to its triangular factor R.  A
    call evaluates BLOCK points at a time: the table of monomials and its
    GEMM with R are written into one buffer the evaluator allocates once.
    Squares are taken of R / 2^r, max |R / 2^r| < 1.  omega: OmegaBasis or
    a (q, q) array whose columns are the basis vectors; ValueError for
    another shape.
    """
    cols = omega.columns if isinstance(omega, OmegaBasis) else np.asarray(omega, dtype=float)
    if cols.shape != (M.q, M.q):
        raise ValueError(f"omega is {cols.shape}, not {M.q} x {M.q}")
    # keyed by M's terms, as a PolyMatrix is not hashable
    table = _minor_table((M.d, tuple(tuple(tuple(sorted(e.terms.items())) for e in row)
                                     for row in M.entries)))
    if table is None:
        return lambda pts: np.zeros(len(np.atleast_2d(pts)))
    basis, nonzero, C, e = table
    R = np.linalg.qr((C @ _compound(cols, _laplace_plan(M.q, nonzero))).T, mode="r")
    r = math.frexp(np.abs(R).max())[1]
    R = np.ldexp(R, -r)
    n_r, n_mon = R.shape
    # one allocation, not two, for fewer page faults (see BLOCK)
    buf = np.empty((n_mon + n_r) * BLOCK)
    Z_buf, Y_buf = buf[:n_mon * BLOCK], buf[n_mon * BLOCK:]

    # the closure must not refer to itself: a reference cycle would keep the
    # buffer until the garbage collector runs
    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        norms = np.empty(len(pts))
        for i in range(0, len(pts), BLOCK):
            block = pts[i:i + BLOCK]
            n = len(block)
            Z = basis.monomials(block, out=Z_buf[:n_mon * n].reshape(n_mon, n))
            Y = np.matmul(R, Z, out=Y_buf[:n_r * n].reshape(n_r, n))
            np.einsum("ij,ij->j", Y, Y, out=norms[i:i + n])
        np.sqrt(norms, out=norms)
        with np.errstate(over="ignore"):  # a norm past the float range is inf
            return np.ldexp(norms, e + r, out=norms)

    return evaluate


def _philox_stream(seed: int, counter: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(key=seed, counter=[0, 0, 0, counter]))


# points per Philox stream of the plain estimator (part of its determinism:
# changing it changes the estimates)
CHUNK = 1 << 14

# points per integrand evaluation; the values do not depend on it.  A block's
# monomial table and its GEMM with R go into the one buffer a Plücker
# evaluator allocates (56 x BLOCK floats, 448 KiB, on m61), so a block
# allocates only a few vectors of BLOCK floats.  The buffer and each chunk's
# points (256 KiB) are still made afresh per estimate, and whether glibc's
# malloc takes them from its heap or maps and faults fresh pages depends on
# its dynamic mmap and trim thresholds, which rise only when a larger block
# is freed.  In the benchmark process an m61 estimate faults 0 to about 220
# pages (about 320 when the table and the GEMM output are two buffers)
BLOCK = 1 << 10

# Gauss-Legendre orders of the cubature's rule pair, and the relative size
# of the summed rule differences at which it stops
RULE_ORDERS = (8, 12)
CUBATURE_REL_TOL = 1e-12


def _integrand_factory(norm_of, weight, tau: float):
    def f_block(pts):
        w = weight(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = w * norm_of(pts) ** (-tau)
        # a value that is not finite under nonzero weight (inf where the
        # norm is 0) is left out and flagged
        weighted, finite = w != 0.0, np.isfinite(vals)
        return (np.where(weighted & finite, vals, 0.0),
                int(np.count_nonzero(weighted & ~finite)))

    def f(pts):
        parts = [f_block(pts[i:i + BLOCK]) for i in range(0, len(pts), BLOCK)]
        return np.concatenate([v for v, _ in parts]), sum(b for _, b in parts)

    return f


def integral_inputs(M, weight, tau, domain) -> tuple:
    """(weight, tau, box) of :func:`estimate_integral` as floats, else
    ValueError: tau finite and positive, a constant weight finite and
    nonnegative, and the box M.d finite intervals [lo, hi] with lo < hi."""
    tau = float(tau)
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive: {tau}")
    if not callable(weight):
        weight = float(weight)
        if not 0 <= weight < math.inf:
            raise ValueError(f"a constant weight must be finite and nonnegative: {weight}")
    dom = tuple(tuple(map(float, iv)) for iv in domain)
    if len(dom) != M.d or not all(len(iv) == 2 and -math.inf < iv[0] < iv[1] < math.inf
                                  for iv in dom):
        raise ValueError(f"domain needs {M.d} finite intervals [lo, hi], lo < hi")
    return weight, tau, dom


def estimate_integral(M, weight, tau, domain, omega, seed: int = 0,
                      n_samples: int = 100_000, stratified: bool = False,
                      budget_factor: int = 32) -> IntegralEstimate:
    """Estimate of int w(t) ||u(t)||_omega^(-tau) dt over a box.

    Parameters
    ----------
    M : PolyMatrix
        Row family u(t); its norm is :func:`plucker_evaluator`'s.
    weight : callable | float
        Nonnegative weight w(t); a scalar means a finite constant weight.
    tau : float
        Finite and positive.
    domain : sequence of (lo, hi)
        Axis-aligned box: M.d finite intervals with lo < hi.  Inputs
        outside these ranges raise ValueError (:func:`integral_inputs`).
    stratified : bool
        False: plain Monte Carlo over ``n_samples`` points of Philox streams
        keyed by ``seed``, with the sample standard error.  True: the
        adaptive cubature of :func:`_cubature`, which ignores ``seed``,
        spends at most ``budget_factor * n_samples`` evaluations (or its
        first cell's), and reports its rule-difference error estimate, which
        is not a bound, in ``std_error``.

    ``samples`` counts integrand evaluations.  Points where the norm
    vanishes under positive weight count 0 and are counted in ``flagged``.
    """
    if n_samples < 1 or budget_factor < 1:
        raise ValueError("n_samples and budget_factor must be at least 1")
    weight, tau, dom = integral_inputs(M, weight, tau, domain)
    if not callable(weight):
        weight = lambda pts, w=weight: np.full(len(pts), w)
    f = _integrand_factory(plucker_evaluator(M, omega), weight, tau)
    if stratified:
        value, err, used, flagged = _cubature(f, dom, budget_factor * n_samples)
    else:
        value, err, used, flagged = _plain_mc(f, dom, seed, n_samples)
    return IntegralEstimate(value, err, used, flagged, dom, seed)


def _sample_box(rng, box, n):
    lo = np.array([iv[0] for iv in box])
    hi = np.array([iv[1] for iv in box])
    return lo + (hi - lo) * rng.random((n, len(box)))


def _plain_mc(f, dom, seed, n_samples):
    vol = math.prod(hi - lo for lo, hi in dom)
    sums, sqsums, flagged = [], [], 0
    for counter, start in enumerate(range(0, n_samples, CHUNK), start=1):
        pts = _sample_box(_philox_stream(seed, counter), dom, min(CHUNK, n_samples - start))
        vals, bad = f(pts)
        flagged += bad
        sums.append(float(vals.sum()))
        sqsums.append(float((vals * vals).sum()))
    mean = math.fsum(sums) / n_samples
    var = max(math.fsum(sqsums) / n_samples - mean * mean, 0.0)
    return mean * vol, math.sqrt(var / n_samples) * vol, n_samples, flagged


@lru_cache(maxsize=None)
def _rule_pair(d: int):
    """(U, W): the nodes of the tensor Gauss-Legendre rules of RULE_ORDERS on
    the unit cube, stacked, and a (len(U), 2) matrix whose column k holds rule
    k's weights at its own nodes and 0 elsewhere.  The one-dimensional nodes
    are the eigenvalues of the Jacobi matrix of the Legendre recurrence and the
    weights the squared first components of its eigenvectors (Golub-Welsch)."""
    rules = []
    for n in RULE_ORDERS:
        k = np.arange(1, n)
        beta = k / np.sqrt(4.0 * k * k - 1.0)
        x, V = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
        rules.append((np.array(list(itertools.product((x + 1) / 2, repeat=d))),
                      np.prod(list(itertools.product(V[0] ** 2, repeat=d)), axis=1)))
    (U0, w0), (U1, w1) = rules
    W = np.zeros((len(U0) + len(U1), 2))
    W[:len(U0), 0], W[len(U0):, 1] = w0, w1
    return np.concatenate([U0, U1]), W


def _cubature(f, dom, budget: int):
    """Adaptive tensor Gauss-Legendre cubature over the box ``dom``.

    Each cell carries the integral of the finer rule of the pair RULE_ORDERS
    and, as its error estimate, the difference of the two rules.  Each round
    bisects the fewest cells whose estimates make up half of their sum, taken
    in decreasing order of estimate with ties broken by lower corner, each
    along its axis that is widest relative to the box.  It stops when the
    summed estimate is at most CUBATURE_REL_TOL times the value, or when the
    next round would take the evaluations past ``budget``.  The estimate is
    not a bound: a feature that falls between a cell's nodes can hide from
    both rules.  Returns (value, estimate, evaluations, flagged points).
    """
    d = len(dom)
    U, W = _rule_pair(d)
    box = np.array([[hi - lo for lo, hi in dom]])
    used = flagged = 0

    def evaluate(lo, width):
        # about CHUNK points at a time: a round can split many thousand cells
        nonlocal used, flagged
        rules, step = [], max(1, CHUNK // len(U))
        for a, w in ((lo[i:i + step], width[i:i + step]) for i in range(0, len(lo), step)):
            vals, bad = f((a[:, None, :] + w[:, None, :] * U).reshape(-1, d))
            used += len(vals)
            flagged += bad
            rules.append((vals.reshape(len(a), -1) @ W) * np.prod(w, axis=1)[:, None])
        rules = np.concatenate(rules)
        return rules[:, 1], np.abs(rules[:, 1] - rules[:, 0])

    lo, width = np.array([[a for a, _ in dom]]), box
    q, err = evaluate(lo, width)
    while True:
        value, total = math.fsum(q), math.fsum(err)
        order = np.lexsort((*lo.T[::-1], -err))
        k = min(int(np.searchsorted(np.cumsum(err[order]), 0.5 * total)) + 1, len(q))
        if total <= CUBATURE_REL_TOL * abs(value) or used + 2 * k * len(U) > budget:
            return value, total, used, flagged
        split, keep = order[:k], order[k:]
        half = width[split]
        axis = (np.arange(k), np.argmax(half / box, axis=1))
        half[axis] /= 2
        upper = lo[split]
        upper[axis] += half[axis]
        q_new, err_new = evaluate(np.concatenate([lo[split], upper]),
                                  np.concatenate([half, half]))
        lo = np.concatenate([lo[keep], lo[split], upper])
        width = np.concatenate([width[keep], half, half])
        q, err = np.concatenate([q[keep], q_new]), np.concatenate([err[keep], err_new])


# -- tile-plan weights ---------------------------------------------------------------


class TilePlanWeight:
    """w(t) = prod_i git(tile_map(..., t))^(theta_i / sigma).

    Each tile value is :func:`git_norm`'s deterministic critical-point
    search (at most 120 inner solves) on a tile map sliced from one reduced
    matrix, built here.  A few rational points are probed; if the composed
    value is constant to 1e-4 relative the weight collapses to that
    constant, otherwise each requested point is evaluated exactly (no
    interpolation).  ``mode`` must be "auto"; it, ``restarts`` and ``seed``
    are accepted so that existing callers keep working.
    """

    def __init__(self, M, decomp: BlockDecomposition, plan, mode: str = "auto",
                 restarts: int = 8, seed: int = 0):
        if mode != "auto":
            raise ValueError(f"unknown mode {mode!r}")
        self.M = M
        self.decomp = decomp
        self.plan = plan
        self.R = reduced_matrix(M, decomp)
        self.constant = self._probe_constancy()

    def _value_at(self, t0) -> float:
        total = 1.0
        for pt, theta in zip(self.plan.points, self.plan.theta):
            if theta == 0:
                continue
            tm = _tile_block(self.R, self.decomp, pt.tile, t0)
            v = git_norm(tm, pt.sigma, budget=120).value
            total *= v ** (float(theta) / float(self.plan.sigma_total))
        return total

    def _probe_constancy(self):
        probes = [
            [Fraction(0)] * self.M.d,
            [Fraction(3, 7)] * self.M.d,
            [Fraction(-11, 5) + Fraction(k, 3) for k in range(self.M.d)],
            [Fraction(17, 2) - Fraction(2 * k, 7) for k in range(self.M.d)],
        ]
        vals = [self._value_at(t0) for t0 in probes]
        ref = vals[0]
        if ref == 0:
            return None
        if all(abs(v - ref) <= 1e-4 * abs(ref) for v in vals[1:]):
            return ref
        return None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.constant is not None:
            return np.full(len(pts), self.constant)
        out = np.empty(len(pts))
        for k, t in enumerate(pts):
            t0 = [Fraction(x).limit_denominator(10**6) for x in t]
            out[k] = self._value_at(t0)
        return out
