"""Monte-Carlo estimation of uniform sublevel-set integrals.

The integrand is w(t) / ||u(t)||_omega^tau where u(t) is the row family of
an incidence matrix, omega a volume-one basis, and w a weight (typically a
product of tile-map group norms).  u(t) is a decomposable p-form, and its
omega-norm is the length of its Plücker vector (:func:`plucker_evaluator`);
no Gram matrix squares the condition number of M(t) omega, so a norm is 0
only where u(t) vanishes.  The C(q, p) maximal minors are enumerated once
per family.  C(q, p) grows fast; the shapes here are small (m61 has 126
minors, 48 nonzero, the line family 2), and a shape with thousands should be
measured against a QR of (M(t) omega)^T per sample before it takes this path.

Estimators are deterministic given (seed, samples, domain, omega): sampling
uses counter-mode Philox streams keyed by the master seed, chunk sums are
merged by exact float summation, and the adaptive stratification refines
strata in a deterministic priority order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .blockdecomp import (
    BlockDecomposition,
    Tile,
    _tile_block,
    group_offsets,
    reduced_matrix,
    specialize_s,
)
from .gitnorm import git_norm, haar_orthogonal
from .polycore import Poly, PolyMatrix, act_dense, to_dense


@dataclass
class OmegaBasis:
    """A volume-one basis of R^q; column k of ``columns`` is omega^k."""

    columns: np.ndarray
    log_scale: np.ndarray

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=float)
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


def sample_omega(seed: int, scale_max: float, q: int) -> OmegaBasis:
    """Anisotropic volume-one basis O1 exp(diag w) O2.

    The orthogonal factors are Haar-ish (QR of a Gaussian with sign fix);
    w is uniform on the traceless part of the cube [-scale_max, scale_max]^q,
    drawn by rejection.  The determinant is renormalized to +-1 at the end
    to mop up rounding.
    """
    if scale_max < 0:
        raise ValueError("scale_max must be nonnegative")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    O1 = haar_orthogonal(rng, q)
    O2 = haar_orthogonal(rng, q)
    while True:
        w = rng.uniform(-scale_max, scale_max, size=q)
        w -= w.mean()
        if scale_max == 0 or np.abs(w).max() <= scale_max:
            break
    M = O1 @ np.diag(np.exp(w)) @ O2
    sign, logdet = np.linalg.slogdet(M)
    M *= math.exp(-logdet / q)
    return OmegaBasis(M, w)


# -- the Plücker norm ----------------------------------------------------------------


def _maximal_minors(M: PolyMatrix) -> dict:
    """The p x p minors of M, keyed by column subset in combinations order.

    Laplace expansion along each next row, over the minors of the rows
    above: ring operations only, so the minors are exact for an exact M and
    float otherwise.  p > q has no maximal minor.
    """
    exact, minors = M.exact, {(): Poly.constant(M.d, 1)}
    for k, row in enumerate(M.entries):
        below, minors = minors, {}
        for S in itertools.combinations(range(M.q), k + 1):
            out = {}
            for i, j in enumerate(S):
                sign = -1 if (k - i) % 2 else 1
                for a, ca in row[j].terms.items():
                    for b, cb in below[S[:i] + S[i + 1:]].terms.items():
                        ab = tuple(x + y for x, y in zip(a, b))
                        out[ab] = out.get(ab, 0) + sign * ca * cb
            minors[S] = Poly(M.d, out, exact=exact)
    return minors


@lru_cache(maxsize=16)
def _minor_table(key):
    """(basis, nonzero, C, e) for the row family with terms ``key``, or None
    when it has no nonzero maximal minor.  The minor over the column subset
    ``nonzero[k]`` is sum_alpha C[alpha, k] 2^e z^alpha over ``basis``, with
    max |C| in [1/2, 1); a coefficient past the float range raises
    FloatRangeError."""
    d, rows = key
    M = PolyMatrix([[Poly(d, dict(terms)) for terms in row] for row in rows])
    minors = {S: m for S, m in _maximal_minors(M).items() if not m.is_zero()}
    if not minors:
        return None
    basis, T = to_dense(PolyMatrix([list(minors.values())]))
    C = T[0].T
    e = math.frexp(np.abs(C).max())[1]
    return basis, np.array(list(minors)), np.ldexp(C, -e), e


def plucker_evaluator(M: PolyMatrix, omega):
    """callable mapping points (n, d) to the omega-norms of u(t), M's rows.

    The norm of the decomposable form u(t) is the length of its Plücker
    vector in the basis omega: the maximal minors of G = M(t) omega, which by
    Cauchy-Binet are m(t) Lambda^p(omega), m(t) being M's maximal minors and
    Lambda^p(omega) the p x p minors of omega.  The minors of M are exact
    polynomials, built once per family (cached); per basis, W = C
    Lambda^p(omega) reduces by one QR to its triangular factor R, so a chunk
    costs one GEMM of R with the table of monomials.  Squares are taken of
    R / 2^r, max |R / 2^r| < 1.  omega: OmegaBasis or a (q, q) array whose
    columns are the basis vectors.
    """
    # keyed by M's terms, as a PolyMatrix is not hashable
    table = _minor_table((M.d, tuple(tuple(tuple(sorted(e.terms.items())) for e in row)
                                     for row in M.entries)))
    if table is None:
        return lambda pts: np.zeros(len(np.atleast_2d(pts)))
    basis, nonzero, C, e = table
    cols = omega.columns if isinstance(omega, OmegaBasis) else np.asarray(omega, dtype=float)
    S = np.array(list(itertools.combinations(range(M.q), M.p)))
    wedge = np.linalg.det(cols[nonzero[:, None, :, None], S[None, :, None, :]])
    R = np.linalg.qr((C @ wedge).T, mode="r")
    r = math.frexp(np.abs(R).max())[1]
    R = np.ldexp(R, -r)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        y = R @ basis.monomials(pts)
        with np.errstate(over="ignore"):  # a norm past the float range is inf
            return np.ldexp(np.sqrt(np.einsum("ij,ij->j", y, y)), e + r)

    return evaluate


def _philox_stream(seed: int, counter: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(key=seed, counter=[0, 0, 0, counter]))


# points per Philox stream of the plain estimator (part of its determinism:
# changing it changes the estimates) and per integrand evaluation, so that
# the temporaries of a large stratified pass stay small
CHUNK = 1 << 14

# relative standard error at which the stratified estimator may stop
TARGET_REL_ERROR = 0.05


def _integrand_factory(norm_of, weight, tau: float):
    def f_chunk(pts):
        norms = norm_of(pts)
        w = weight(pts)
        bad = (norms == 0.0) & (w > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(bad, 0.0, w * norms ** (-tau))
        vals = np.where(w == 0.0, 0.0, vals)
        nonfinite = ~np.isfinite(vals)
        vals = np.where(nonfinite, 0.0, vals)
        return vals, int(np.count_nonzero(bad | nonfinite))

    def f(pts):
        parts = [f_chunk(pts[i:i + CHUNK]) for i in range(0, len(pts), CHUNK)]
        return np.concatenate([v for v, _ in parts]), sum(b for _, b in parts)

    return f


def estimate_integral(M, weight, tau, domain, omega, seed: int = 0,
                      n_samples: int = 100_000, stratified: bool = False,
                      budget_factor: int = 32) -> IntegralEstimate:
    """Monte-Carlo estimate of int w(t) ||u(t)||_omega^(-tau) dt over a box.

    Parameters
    ----------
    M : PolyMatrix
        Row family u(t); its norm is :func:`plucker_evaluator`'s.
    weight : callable | float
        Nonnegative weight w(t); a scalar means a finite constant weight.
    domain : sequence of (lo, hi)
        Axis-aligned box.
    stratified : bool
        Adaptive stratification: strata are split (doubling the count) in
        decreasing order of estimated variance until the relative standard
        error is at most TARGET_REL_ERROR or the sample budget
        (budget_factor * n_samples) is exhausted.

    Samples where the norm vanishes under positive weight are excluded and
    counted in ``flagged``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if n_samples < 1 or budget_factor < 1:
        raise ValueError("n_samples and budget_factor must be at least 1")
    tau = float(tau)
    if not callable(weight):
        wconst = float(weight)
        if not 0 <= wconst < math.inf:
            raise ValueError(f"a constant weight must be finite and nonnegative: {wconst}")
        weight = lambda pts: np.full(len(pts), wconst)
    dom = tuple((float(lo), float(hi)) for lo, hi in domain)
    f = _integrand_factory(plucker_evaluator(M, omega), weight, tau)

    if not stratified:
        return _plain_mc(f, dom, seed, n_samples)
    return _stratified_mc(f, dom, seed, n_samples, budget_factor)


def _sample_box(rng, box, n):
    lo = np.array([iv[0] for iv in box])
    hi = np.array([iv[1] for iv in box])
    return lo + (hi - lo) * rng.random((n, len(box)))


def _plain_mc(f, dom, seed, n_samples) -> IntegralEstimate:
    vol = math.prod(hi - lo for lo, hi in dom)
    sums, sqsums = [], []
    count = 0
    flagged = 0
    counter = 0
    while count < n_samples:
        counter += 1
        n = min(CHUNK, n_samples - count)
        rng = _philox_stream(seed, counter)
        pts = _sample_box(rng, dom, n)
        vals, bad = f(pts)
        flagged += bad
        sums.append(float(vals.sum()))
        sqsums.append(float((vals * vals).sum()))
        count += n
    total = math.fsum(sums)
    total_sq = math.fsum(sqsums)
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return IntegralEstimate(
        value=mean * vol,
        std_error=math.sqrt(var / count) * vol,
        samples=count,
        flagged=flagged,
        domain=dom,
        seed=seed,
    )


def _stratified_mc(f, dom, seed, n_samples, budget_factor):
    """Stratified passes with doubling stratum counts.

    Each pass lays an equal grid of strata over the box (the split axis
    rotates) and spends roughly ``n_samples`` fresh points; the stratum count
    doubles between passes until the relative standard error target is met
    AND the estimate is stable against the previous pass, or the total budget
    is exhausted.  Once the grid is as fine as the per-pass sample count
    allows, further passes enrich the per-stratum sample count instead.
    Doubling rather than locally refining is deliberately conservative:
    narrow features are discovered by the fresh global passes.
    """
    dim = len(dom)
    budget = budget_factor * n_samples
    used = 0
    flagged = 0
    pass_id = 0
    splits = [0] * dim  # number of binary splits per axis
    value = err = None
    lo = np.array([iv[0] for iv in dom])
    widths0 = np.array([iv[1] - iv[0] for iv in dom])
    vol = float(np.prod(widths0))

    def run_pass(n_per):
        nonlocal pass_id
        pass_id += 1
        counts = [1 << s for s in splits]
        m = int(np.prod(counts))
        rng = _philox_stream(seed, pass_id)
        u = rng.random((m, n_per, dim))
        idx = np.arange(m)
        coords = []
        for ax in range(dim):
            coords.append(idx % counts[ax])
            idx = idx // counts[ax]
        cell_lo = np.stack(
            [lo[ax] + coords[ax] * widths0[ax] / counts[ax] for ax in range(dim)],
            axis=-1)
        cell_w = widths0 / np.array(counts, dtype=float)
        pts = cell_lo[:, None, :] + u * cell_w
        vals, bad = f(pts.reshape(-1, dim))
        vals = vals.reshape(m, n_per)
        cvol = vol / m
        means = vals.mean(axis=1)
        variances = vals.var(axis=1)
        est = float(means.sum()) * cvol
        var_est = float(variances.sum()) * cvol * cvol / n_per
        return est, math.sqrt(var_est), m * n_per, bad

    mult = 1
    while True:
        m = int(np.prod([1 << s for s in splits]))
        n_per = max(2, n_samples // m) * mult
        est, e, took, bad = run_pass(n_per)
        used += took
        flagged += bad
        prev, value, err = value, est, e
        good = (prev is not None and value > 0 and err <= TARGET_REL_ERROR * value
                and abs(value - prev) <= 3.0 * err + 1e-3 * abs(value))
        if good or used + m * n_per > budget:
            break
        if m <= 2 * n_samples:
            splits[int(np.argmin(splits))] += 1  # double along the coarsest axis
        else:
            mult *= 2  # grid is as fine as the pass affords; deepen the passes
    return IntegralEstimate(
        value=value,
        std_error=err,
        samples=used,
        flagged=flagged,
        domain=dom,
        seed=seed,
    )


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


# -- hypothesis probing ----------------------------------------------------------------


@dataclass
class NondegReport:
    samples: list
    min_ratio: float


def probe_nondegeneracy(M, decomp: BlockDecomposition, t0, sigma, w_value,
                        M_samples: int = 10, seed: int = 0,
                        destabilizer=None, flow_steps: int = 0,
                        tile: Tile | None = None,
                        degree_override: int | None = None) -> NondegReport:
    """Numeric probe of the derivative lower-bound hypothesis at one point.

    For each sampled invertible matrix Mx (Haar-ish with random log-scales;
    plus exponentials of a supplied destabilizer direction), evaluates

        RHS(Mx) = (sum over blocks, |alpha| = D_ij of
                   |u_row . (Mx d)^alpha v_col|^2 / alpha!)^(1/2)

    through exact differentiation of the reduced matrix and reports
    RHS / (|det Mx|^sigma w_value^sigma) per sample plus the minimum.

    ``tile`` restricts the block sum (used to exhibit instability of a
    degenerate subtile) and ``degree_override`` replaces the blocks' formal
    degrees (lowering degrees yields a coarser but still valid
    decomposition, which is how a homogeneous subtile is probed on its own).
    A destabilizer contributes samples (exp(k w_d); row/column rescalings
    exp(k w_p), exp(k w_q) applied to the adapted factorization, indexed
    within the tile) for k = 1 .. flow_steps.
    """
    d = M.d
    if len(t0) != d:
        raise ValueError("diagonal point has wrong dimension")
    sigma = float(sigma)
    R = reduced_matrix(M, decomp)
    basis, T = to_dense(PolyMatrix(
        [[specialize_s(R.entries[r][c], t0) for c in range(R.q)]
         for r in range(R.p)]))
    ri, ci = group_offsets(decomp.row_groups), group_offsets(decomp.col_groups)
    if tile is None:
        irange = range(len(decomp.row_groups))
        jrange = range(len(decomp.col_groups))
    else:
        irange = range(tile.I[0], tile.I[1] + 1)
        jrange = range(tile.J[0], tile.J[1] + 1)
    row_lo = ri[irange.start]
    col_lo = ci[jrange.start]
    # alpha! on the degree-D monomials of every block in the sum, 0 elsewhere
    degree = basis.exps.sum(axis=1)
    mass = np.zeros(T.shape)
    for i in irange:
        for j in jrange:
            if (i, j) in decomp.zero_blocks:
                continue
            on = degree == (decomp.D[i][j] if degree_override is None
                            else degree_override)
            mass[ri[i]:ri[i + 1], ci[j]:ci[j + 1], on] = basis.fac[on]
    samples = []
    w_value = float(w_value)

    def record(desc, Mx, row_scale=None, col_scale=None):
        det = abs(float(np.linalg.det(np.asarray(Mx, dtype=float))))
        rs, cs = np.ones(R.p), np.ones(R.q)
        if row_scale is not None:
            rs[row_lo:row_lo + len(row_scale)] = row_scale
            cs[col_lo:col_lo + len(col_scale)] = col_scale
        X = act_dense(basis, T, np.eye(R.p), np.eye(R.q), Mx) * np.outer(rs, cs)[:, :, None]
        val = math.sqrt(float((mass * X ** 2).sum()))
        denom = det ** sigma * w_value ** sigma
        ratio = math.inf if denom == 0 else val / denom
        samples.append({"sample": desc, "rhs": val, "det": det, "ratio": ratio})

    record("identity", np.eye(d))
    rng = np.random.default_rng(seed)
    for k in range(max(0, M_samples - 1)):
        O1 = haar_orthogonal(rng, d)
        O2 = haar_orthogonal(rng, d)
        w = rng.uniform(-2, 2, size=d)
        Mx = O1 @ np.diag(np.exp(w)) @ O2
        record(f"random-{k}", Mx)
    if destabilizer is not None and flow_steps > 0:
        wp = np.array([float(x) for x in destabilizer.w_p])
        wq = np.array([float(x) for x in destabilizer.w_q])
        wd = np.array([float(x) for x in destabilizer.w_d])
        for k in range(1, flow_steps + 1):
            Mx = np.diag(np.exp(k * wd))
            record(f"destabilizer-{k}", Mx,
                   row_scale=np.exp(k * wp), col_scale=np.exp(k * wq))
    return NondegReport(samples, min(s["ratio"] for s in samples))
