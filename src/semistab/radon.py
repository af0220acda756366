"""Radon-like transform frontend: incidence data, curvature forms,
semistability verdicts, and model L^p exponents.

A problem is a defining map phi : R^n x R^(n1-k) -> R^k in graph form.  Its
curvature form at a base point is the mixed-Hessian tensor restricted to the
kernel of the x-Jacobian, after volume-normalized changes of chart that make
the extraction canonical.  The transform exhibits the best-possible
L^p-improving behaviour exactly when that bilinear form is semistable, which
is decided by the machinery of :mod:`semistab.gitnorm` applied to the
z-linear matrix encoding of the form.

Verdicts are certificate-backed: positive comes with a sparse convex-weight
certificate or a converged critical point, unstable with a rational frame
plus a diagonal destabilizer.  The verdict runs ``STAGES`` in order, and
every exact certificate, the sparse weights included, is checked again before
it is reported; anything else is undetermined, with the best numeric evidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blockdecomp import (
    degrees_monotone,
    diagonal_shift,
    inflate_s,
    inflate_z,
    reduced_product,
    unimodular,
    z_degree,
)
from .gitnorm import (
    Destabilizer,
    find_destabilizer,
    git_norm,
    minimize_diagonal,
    sparse_criterion,
    sparse_theta_holds,
    theta_to_json,
)
from .lp import (CertificateError, echelon_frame, exact_inverse, exact_nullspace,
                 exact_rank, exact_rref, integer_scale)
from .polycore import (
    FloatRangeError,
    GroupElement,
    Poly,
    PolyMatrix,
    act_group,
    grlex_key,
    is_int,
    mi_factorial,
    mi_order,
    partial_derivative,
    poly_from_json,
    support_set,
)


class NonTransverse(Exception):
    pass


@dataclass
class RadonProblem:
    """Defining data: phi maps (x in R^n, t in R^(n1-k)) into R^k."""

    n: int
    n1: int
    k: int
    phi: list  # k Polys in n + (n1 - k) variables, x block first

    def __post_init__(self):
        if not (0 < self.k < min(self.n, self.n1)):
            raise ValueError("need 0 < k < min(n, n1)")
        if len(self.phi) != self.k:
            raise ValueError("phi must have k components")
        nv = self.n + self.n1 - self.k
        for f in self.phi:
            if f.dim != nv:
                raise ValueError("phi components live in n + (n1-k) variables")

    @property
    def nt(self) -> int:
        return self.n1 - self.k

    @staticmethod
    def from_json(obj: dict) -> "RadonProblem":
        if not all(is_int(obj[f]) for f in ("n", "n1", "k")):
            raise ValueError("n, n1 and k must be integers")
        nv = obj["n"] + obj["n1"] - obj["k"]
        return RadonProblem(obj["n"], obj["n1"], obj["k"],
                            [poly_from_json(nv, f) for f in obj["phi"]])


@dataclass
class CurvatureForm:
    """Mixed-derivative tensor g[i][j][l]: output i, x-kernel j, t-kernel l.

    ``chart`` records which normalization path produced the tensor:
    exact rational pivoting or double-precision orthogonal reduction.
    """

    tensor: list
    chart: str = "exact"

    def __post_init__(self):
        k, b, c = self.shape
        if 0 in (k, b, c):
            raise ValueError(f"tensor has an empty axis: {k} x {b} x {c}")
        if any(len(pl) != b or any(len(row) != c for row in pl) for pl in self.tensor):
            raise ValueError(f"tensor is ragged, not {k} x {b} x {c}")

    @property
    def shape(self):
        k = len(self.tensor)
        b = len(self.tensor[0]) if k else 0
        c = len(self.tensor[0][0]) if b else 0
        return (k, b, c)

    def to_polymatrix(self) -> PolyMatrix:
        """Rows = output index, columns = x-kernel index, z = t-kernel."""
        c = self.shape[2]
        units = [tuple(u) for u in np.eye(c, dtype=int).tolist()]
        return PolyMatrix([[Poly(c, {u: v for u, v in zip(units, cell) if v != 0})
                            for cell in plane] for plane in self.tensor])

    def transformed(self, L_out, L_x, L_t) -> "CurvatureForm":
        """Apply linear maps to the three slots, in Fractions:
        out[i][j][l] = sum L_out[i][i2] L_x[j2][j] L_t[l2][l] g[i2][j2][l2]."""
        frac = np.frompyfunc(Fraction, 1, 1)
        g, Lo, Lx, Lt = (frac(np.array(M, dtype=object))
                         for M in (self.tensor, L_out, L_x, L_t))
        return CurvatureForm(
            np.einsum("ia,bj,cl,abc->ijl", Lo, Lx, Lt, g, optimize=True).tolist())


@dataclass
class SemistabilityVerdict:
    state: str                     # positive | unstable | undetermined
    certificate: object = None
    value_bound: float = 0.0
    detail: str = ""

    def to_json(self) -> dict:
        out = {"state": self.state, "value_bound": self.value_bound,
               "detail": self.detail}
        if hasattr(self.certificate, "to_json"):
            out["certificate"] = self.certificate.to_json()
        return out


@dataclass
class UnstableCertificate:
    frame: GroupElement | None      # volume-one element; None for trivial
    destabilizer: Destabilizer | None
    exact: bool
    sigma: Fraction = Fraction(0)

    def reverify(self, P: PolyMatrix) -> bool:
        """Exact re-check: transport P through the frame and test every
        support pairing against the margin.  Requires a rational frame."""
        if self.destabilizer is None:
            return P.is_zero()
        Pg = act_group(P, self.frame) if self.frame is not None else P
        return self.destabilizer.verify(support_set(Pg), self.sigma)

    def to_json(self) -> dict:
        out = {"exact": self.exact}
        if self.destabilizer is not None:
            out["destabilizer"] = self.destabilizer.to_json()
        return out


@dataclass
class PositiveCertificate:
    kind: str                      # "sparse" or "critical"
    value: float
    theta: dict | None = None
    foc_residual: float = 0.0
    sigma: Fraction | None = None

    @property
    def exact(self) -> bool:  # a critical point is floats, with no exact claim
        return self.kind == "sparse"

    def reverify(self, P: PolyMatrix) -> bool:
        """Exact re-check of the sparse weights theta on P at sigma."""
        return sparse_theta_holds(P, self.sigma, self.theta)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "value": self.value,
               "foc_residual": self.foc_residual}
        if self.theta is not None:
            out["theta"] = theta_to_json(self.theta)
        return out


# -- curvature forms -----------------------------------------------------------------


def curvature_form(prob: RadonProblem, z0) -> CurvatureForm:
    """Extract the curvature form at a base point.

    Normalizes coordinates (translate the base point to the origin, split
    the x-space along the kernel of the x-Jacobian, renormalize the target
    so the Jacobian restricted to the complement is the identity) and
    returns g[i][j][l] = d^2 phi^i / dx_j dt_l at the point, with j running
    over kernel directions.

    The Jacobian J and the mixed partials are read from the shifted phi into
    one array, of Fractions for rational phi and of floats otherwise.  The
    exact chart splits off the kernel by rational pivoting and inverts J on
    the pivot columns; the float chart splits it by the SVD of J with a 1e-8
    rank threshold.  Both contract with the same einsum, and the returned
    form records which chart ran.
    """
    nv = prob.n + prob.nt
    if len(z0) != nv:
        raise ValueError("base point must have n + (n1-k) coordinates")
    exact = all(f.exact for f in prob.phi)
    shifted = [diagonal_shift(f, [Fraction(v) if exact else float(v) for v in z0])
               for f in prob.phi]
    # H[i, a, 0] = d phi^i / dx_a and H[i, a, 1 + l] = d^2 phi^i / dx_a dt_l at 0
    eye = [[int(m == v) for v in range(nv)] for m in range(nv)]
    H = np.array([[[f.coeff([x + y for x, y in zip(eye[a], e)])
                    for e in [[0] * nv] + eye[prob.n:]] for a in range(prob.n)]
                  for f in shifted], dtype=object if exact else float)
    # J is copied out contiguous: a product with a strided view skips BLAS
    # and rounds differently
    J, mixed = H[:, :, 0].copy(), H[:, :, 1:]
    if exact:
        kernel, piv_cols = exact_nullspace(J.tolist(), prob.n)
        rank = len(piv_cols)
    else:
        _, s, Vt = np.linalg.svd(J)
        rank = int(np.sum(s > 1e-8 * max(s[0], 1e-300))) if s.size else 0
        kernel = Vt[prob.k:, :]          # rows span ker J, Vt[:k] the complement
    if rank < prob.k:
        raise NonTransverse(f"x-Jacobian rank {rank} < codimension {prob.k}")
    # target renormalization T = (J restricted to the complement of the kernel)^{-1}
    T = (exact_inverse(J[:, piv_cols].tolist()) if exact
         else np.linalg.inv(J @ Vt[:prob.k, :].T))
    tensor = np.einsum("im,ja,mal->ijl", T, kernel, mixed, optimize=True)
    return CurvatureForm(tensor.tolist(), chart="exact" if exact else "float")


# -- flattening frames for z-linear matrices ------------------------------------------


def _flattening(T, axis):
    """One row per index on ``axis`` and one column per cell of the other two
    axes, the later of them major (variable-major for rows and columns)."""
    return np.moveaxis(T, axis, 0).transpose(0, 2, 1).reshape(T.shape[axis], -1)


def _place(n, placed, rest):
    """n integral rows: ``placed[i]`` where given, else the next of ``rest``."""
    rest = iter(rest)
    return np.array([integer_scale(placed[i] if i in placed else next(rest))[0]
                     for i in range(n)], dtype=object)


def pencil_destabilizer(P: PolyMatrix, sigma):
    """Exact destabilizing frame for a z-linear matrix of any shape.

    The three axes of P's (p, q, d) coefficient array are treated alike:
    the frame of an axis brings its flattening M to reduced row echelon
    form.  If some M is rank-deficient, those frames leave a zero slice.
    Otherwise, on an axis of size (product of the other two) - 1, M has a
    one-dimensional kernel K, an s x f matrix over the other axes (the
    castling shape; Sato and Kimura, 1977).  Frames on those axes bring K
    of rank r to sum_{k<r} (-1)^k e_{s-m+k} (x) f_{f-1-k}, m = min(s, f),
    up to the scale of each term, and the frame of the transformed M
    follows.  If s != f, K has a zero row or column and the support
    separates.  The diagonal destabilizer comes from the exact margin LP.
    Returns (GroupElement, Destabilizer) or None.
    """
    sigma = Fraction(sigma)
    if not P.exact or any(mi_order(a) != 1 for row in P.entries for e in row
                          for a in e.terms):
        return None
    units = [tuple(u) for u in np.eye(P.d, dtype=int).tolist()]
    coeffs = [e.coeff(u) for row in P.entries for e in row for u in units]
    T = np.array(integer_scale(coeffs)[0], dtype=object).reshape(P.p, P.q, P.d)
    flat = [_flattening(T, a) for a in range(3)]
    full = [exact_rank(M.tolist()) == n for M, n in zip(flat, T.shape)]
    frames = [np.eye(n, dtype=object) if ok else echelon_frame(M)[0]
              for M, n, ok in zip(flat, T.shape, full)]
    if all(full):
        a = next((a for a, n in enumerate(T.shape) if n == T.size // n - 1), None)
        if a is None:
            return None
        s, f = (b for b in (2, 1, 0) if b != a)
        ns, nf = T.shape[s], T.shape[f]
        M = flat[a]
        ker, _ = exact_nullspace(M.tolist(), ns * nf)
        K = np.array(integer_scale(ker[0])[0], dtype=object).reshape(ns, nf)
        R, piv = exact_rref(K.tolist())
        m = min(ns, nf)
        # K = sum_k K[:, piv_k] (x) R_k: row s-m+k of G_s is (-1)^k K[:, piv_k]
        # and row f-1-k of G_f is R_k, each up to scale
        frames[s] = _place(ns, {ns - m + k: [(-1) ** k * v for v in K[:, c]]
                                for k, c in enumerate(piv)},
                           exact_nullspace(K.T.tolist(), ns)[0])
        frames[f] = _place(nf, {nf - 1 - k: [row.get(j, 0) for j in range(nf)]
                                for k, row in enumerate(R)},
                           np.delete(np.eye(nf, dtype=object), piv, 0))
        frames[a] = echelon_frame(M @ np.kron(frames[s], frames[f]).T)[0]
    g = GroupElement(*frames, volume_preserving=False)
    dest = find_destabilizer(support_set(act_group(P, g)), sigma)
    return None if dest is None else (g, dest)


# -- the verdict ------------------------------------------------------------------------


def _zero_stage(P: PolyMatrix, sigma):
    if P.is_zero():
        cert = UnstableCertificate(None, None, exact=True, sigma=sigma)
        return SemistabilityVerdict("unstable", cert, 0.0, "zero form")


def _sparse_stage(P: PolyMatrix, sigma):
    if P.exact and (sv := sparse_criterion(P, sigma)).positive:
        try:
            value = minimize_diagonal(P, sigma).value
        except FloatRangeError:  # the bound is lost, not the certificate
            value = math.inf
        cert = PositiveCertificate("sparse", value, theta=sv.theta, sigma=sigma)
        return SemistabilityVerdict("positive", cert, value, "sparse criterion")


def _pencil_stage(P: PolyMatrix, sigma):
    if P.exact and (got := pencil_destabilizer(P, sigma)) is not None:
        cert = UnstableCertificate(*got, exact=True, sigma=sigma)
        return SemistabilityVerdict("unstable", cert, 0.0, "pencil-reduction destabilizer")


def _identity_frame_stage(P: PolyMatrix, sigma):
    if P.exact and (dest := find_destabilizer(support_set(P), sigma)) is not None:
        cert = UnstableCertificate(None, dest, exact=True, sigma=sigma)
        return SemistabilityVerdict("unstable", cert, 0.0, "identity-frame destabilizer")


def _search_stage(P: PolyMatrix, sigma):
    try:
        est = git_norm(P, sigma, budget=200)
    except FloatRangeError as exc:
        return SemistabilityVerdict("undetermined", None, math.inf,
                                    f"best upper bound {math.inf}: {exc}")
    if est.status == "converged" and est.value > 0:
        cert = PositiveCertificate("critical", est.value, foc_residual=est.foc_residual)
        return SemistabilityVerdict("positive", cert, est.value, "converged critical point")
    return SemistabilityVerdict("undetermined", None, est.value,
                                f"best upper bound {est.value:.3e}, status {est.status}")


# the verdict's stages in order, as (name, stage): a stage maps (P, sigma) to a
# verdict, or to None when it cannot decide; the float search always decides
STAGES = (("zero", _zero_stage), ("sparse", _sparse_stage), ("pencil", _pencil_stage),
          ("identity-frame", _identity_frame_stage), ("search", _search_stage))


def semistability_verdict(Q: CurvatureForm, restarts: int = 64,
                          seed: int = 0) -> SemistabilityVerdict:
    """Decide semistability of a curvature form, with certificates.

    Returns the first decision of ``STAGES`` at sigma = 1/(t-kernel
    dimension).  Every exact certificate, the sparse theta included, is
    checked again here first, and a failed check raises CertificateError
    naming the stage.  ``restarts`` and ``seed`` have no effect: the search
    is deterministic, and they are accepted only so that callers keep working.
    """
    sigma = Fraction(1, Q.shape[2])
    P = Q.to_polymatrix()
    for name, stage in STAGES:
        if (verdict := stage(P, sigma)) is not None:
            cert = verdict.certificate
            if getattr(cert, "exact", False) and not cert.reverify(P):
                raise CertificateError(f"{name} certificate fails reverify")
            return verdict


# -- exponents -----------------------------------------------------------------------


def model_exponents(n: int, n1: int, k: int) -> dict:
    """Model L^p-improving exponents and their duals, exact.

    Returns the Lebesgue pair (for the n-side and n1-side functions), the
    dual reciprocals, and checks the exact identity
    n1 + n = (n+k)/p2 + (n1+k)/p1.
    """
    if not (0 < k < min(n, n1)):
        raise ValueError("need 0 < k < min(n, n1)")
    r2 = Fraction(k * (n1 - k), n1 * (n - k)) + 1
    r1 = Fraction(k * (n - k), n * (n1 - k)) + 1
    inv_p2 = Fraction(n1 * (n - k), n * n1 - k * k)
    inv_p1 = Fraction(n * (n1 - k), n * n1 - k * k)
    if (n + k) * inv_p2 + (n1 + k) * inv_p1 != n1 + n:
        raise CertificateError("exponents break n1 + n = (n+k)/p2 + (n1+k)/p1")
    return {"r2": r2, "r1": r1, "inv_p2": inv_p2, "inv_p1": inv_p1}


@dataclass
class BalancedResult:
    ok: bool
    sigma: Fraction | None = None
    N: int = 0
    r: Fraction | None = None
    target: Fraction | None = None
    witness: tuple | None = None
    reason: str = ""


def balanced_check(alphas, type_: int, k: int | None = None,
                   d: int | None = None) -> BalancedResult:
    """Closure and mean conditions for a finite monomial set, exact.

    Type 1 needs the block multiplicity ``k``; type 2 the dimension ``d``
    (which must match the multiindex length).  Returns the degeneracy
    parameter sigma, the cardinality N, the source Lebesgue exponent r and
    the target exponent.
    """
    alphas = [tuple(a) for a in alphas]
    if not alphas:
        return BalancedResult(False, reason="empty set")
    dim = len(alphas[0])
    if any(len(a) != dim for a in alphas):
        return BalancedResult(False, reason="mixed dimensions")
    if any(mi_order(a) == 0 for a in alphas):
        return BalancedResult(False, reason="contains the zero multiindex")
    N = len(alphas)
    aset = set(alphas)

    def closure_fails(least):
        """The first multiindex of order >= ``least`` below an alpha and missing."""
        for a in alphas:
            for b in itertools.product(*(range(x + 1) for x in a)):
                if mi_order(b) >= least and b != a and b not in aset:
                    return BalancedResult(False, witness=b,
                                          reason=f"closure fails below {a}")
        return None

    total = [Fraction(sum(a[m] for a in alphas), N) for m in range(dim)]
    if type_ == 1:
        if k is None or k < 1:
            return BalancedResult(False, reason="type 1 needs k")
        if (fail := closure_fails(1)) is not None:
            return fail
        if len(set(total)) != 1 or total[0] <= 0:
            return BalancedResult(False, reason="mean is not sigma * ones")
        sigma = total[0]
        r = Fraction(N * k, 1) * sigma / (N + 1) + 1
        return BalancedResult(True, sigma, N, r, r * Fraction(N + 1, N))
    if type_ == 2:
        if d is None or d != dim:
            return BalancedResult(False, reason="type 2 needs matching d")
        if any(mi_order(a) == 1 for a in alphas):
            return BalancedResult(False, reason="degree-1 multiindex present")
        if (fail := closure_fails(2)) is not None:
            return fail
        mean_dir = [sum(Fraction(a[m], mi_order(a)) for a in alphas) / N
                    for m in range(dim)]
        if len(set(mean_dir)) != 1 or mean_dir[0] != Fraction(1, d):
            return BalancedResult(False, reason="direction mean is not 1/d")
        if len(set(total)) != 1:
            return BalancedResult(False, reason="mean is not constant")
        sigma = total[0] - Fraction(1, d)
        if sigma <= 0:
            return BalancedResult(False, reason="sigma not positive")
        r = Fraction(N * d, 1) * sigma / (N + d) + 1
        return BalancedResult(True, sigma, N, r, r * Fraction(N + d, N))
    return BalancedResult(False, reason=f"unknown type {type_}")


# -- balanced incidence families -------------------------------------------------------


def _taylor_monomial(a) -> Poly:
    """s^a / a!, exact."""
    return Poly(len(a), {a: Fraction(1, mi_factorial(a))})


def _moment_family(alphas, k: int, sign: int, F, chk: BalancedResult):
    """The 6-tuple (M, A, B, P, right, sigma) of a balanced family.

    ``alphas`` are in grlex order and each one owns ``k`` consecutive rows;
    F is the N k x c block of extra columns, polynomials in s.  Then
    M = [I | F] in s, B = [[I, -F], [0, I]] in t, ``right`` is -F read in z,
    and A is the block-diagonal Taylor shift
    A[a][a2] = sign^|a - a2| s^(a - a2) / (a - a2)! (zero unless a >= a2).
    P = [A | right] in the (s, z) variables is the degree-matched matrix.
    """
    d = len(alphas[0])
    n, c = len(F), len(F[0])
    zero, one = Poly.zero(d), Poly.constant(d, 1)
    unit = lambda r, size: [one if col == r else zero for col in range(size)]
    right = [[-f for f in row] for row in F]
    M = [unit(r, n) + F[r] for r in range(n)]
    B = ([unit(r, n) + right[r] for r in range(n)]
         + [[zero] * n + unit(r, c) for r in range(c)])
    A = [[zero] * n for _ in range(n)]
    for i, a in enumerate(alphas):
        for i2, a2 in enumerate(alphas):
            diff = tuple(x - y for x, y in zip(a, a2))
            if min(diff) >= 0:
                shift = _taylor_monomial(diff).scale(sign ** sum(diff))
                for m in range(k):
                    A[i * k + m][i2 * k + m] = shift
    P = PolyMatrix([[inflate_s(e, d) for e in a_row] + [inflate_z(e, d) for e in r_row]
                    for a_row, r_row in zip(A, right)])
    return PolyMatrix(M), PolyMatrix(A), PolyMatrix(B), P, PolyMatrix(right), chk.sigma


def moment_family_type1(alphas, k: int):
    """Incidence data for the non-translation-invariant balanced family.

    Returns (M, A, B, P, right, sigma): the (Nk) x (Nk + k) incidence matrix
    M = [I | F] in s, with F[(a, m)][c] = delta_mc s^a / a!, the unimodular
    witnesses A (the Taylor shift with sign -1) and B, the full
    degree-matched matrix P (z understood as t - s), and the z-homogeneous
    right block -F to which the sparse criterion applies at the balance
    parameter sigma.  :func:`_moment_family` builds both families.
    """
    chk = balanced_check(alphas, 1, k=k)
    if not chk.ok:
        raise ValueError(f"not balanced of type 1: {chk.reason}")
    alphas = sorted((tuple(a) for a in alphas), key=grlex_key)
    zero = Poly.zero(len(alphas[0]))
    F = [[_taylor_monomial(a) if c == m else zero for c in range(k)]
         for a in alphas for m in range(k)]
    return _moment_family(alphas, k, -1, F, chk)


def moment_family_type2(alphas):
    """Translation-invariant balanced family (gradient rows): the 6-tuple of
    :func:`moment_family_type1` with one row per multiindex,
    F[a][l] = (-1)^(|a| - 1) d/ds_l (s^a / a!) and the Taylor shift with
    sign +1."""
    d = len(next(iter(alphas), ()))
    chk = balanced_check(alphas, 2, d=d)
    if not chk.ok:
        raise ValueError(f"not balanced of type 2: {chk.reason}")
    alphas = sorted((tuple(a) for a in alphas), key=grlex_key)
    units = np.eye(d, dtype=int).tolist()
    F = [[partial_derivative(_taylor_monomial(a), e).scale((-1) ** (mi_order(a) - 1))
          for e in units] for a in alphas]
    return _moment_family(alphas, 1, 1, F, chk)


# -- decomposition verification ---------------------------------------------------------


@dataclass
class RadonVerifyReport:
    ok: bool
    det_ok: bool
    degree_monotone: bool
    violations: list

    def to_json(self):
        return {"ok": self.ok, "det_ok": self.det_ok,
                "degree_monotone": self.degree_monotone,
                "violations": [
                    {"entry": list(v[0]), "z_monomial": list(v[1])}
                    for v in self.violations]}


def verify_radon_decomposition(M: PolyMatrix, A: PolyMatrix, B: PolyMatrix,
                               P: PolyMatrix) -> RadonVerifyReport:
    """Exact check that A(s) M(s) B(t) agrees with P through order deg P_ij.

    P is in the (s, z) variables, s first and z = t - s second (a ValueError
    otherwise).  The defect A M B - P must vanish on the diagonal z = 0
    together with all derivatives of total order <= deg_z P_ij; a violation
    names the first term of least z-order below that bound.  Degrees must be
    constant per entry and nondecreasing in both indexes.
    """
    d = M.d
    if P.d != 2 * d:
        raise ValueError("P entries must be in the (s, z) variables")
    det_ok = unimodular(d, A, B)
    R = reduced_product(A, M, B)
    degs = [[None] * M.q for _ in range(M.p)]  # None: zero entry, no constraint
    viol = []
    for i in range(M.p):
        for j in range(M.q):
            E = P.entries[i][j]
            dij = max(z_degree(E, d), 0)
            degs[i][j] = None if E.is_zero() else dij
            low = [a for a in (R.entries[i][j] - E).terms if sum(a[d:]) <= dij]
            if low:
                viol.append(((i, j), min(low, key=lambda a: sum(a[d:]))[d:]))
    monotone = degrees_monotone(degs)
    ok = det_ok and monotone and not viol
    return RadonVerifyReport(ok, det_ok, monotone, viol)
