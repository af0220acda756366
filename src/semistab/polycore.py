"""Sparse multiindex polynomials, polynomial-valued matrices and the group action.

Coefficients live in one of two layers:

* the exact layer (``fractions.Fraction``), used for every decision that must
  be a certificate (vanishing orders, support sets, LP data).  A polynomial
  is a mapping ``multiindex -> coefficient`` with no stored zero;
* a double-precision layer, used whenever P or any of the acting matrices is
  float.

The group action is one kernel for both, :func:`act_dense`.  A p x q matrix
becomes a dense array of shape (p, q, n_mon) over the graded monomial basis
of degree <= P's degree (:class:`GradedBasis`, which carries the alpha!
weights of the norm): float, or ``object`` holding Fractions when P and the
acting matrices are all exact.  The kernel computes A . T . B^T on the first
two axes and the symmetric power S(C) of the variable change on the monomial
axis, in the dtype of T.  On float input a coefficient then becomes zero when
it lies within the running round-off bound of the sums that formed it; exact
input has no round-off, and no cut.

Multiindices are plain tuples of nonnegative ints; the canonical term order
is graded lexicographic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .lp import exact_det, integer_scale

SINGULAR_REL = 1e-12      # float C with sigma_min <= this * sigma_max is singular

Multiindex = tuple


class FloatRangeError(ValueError):
    """Exact data that the float layer cannot hold."""


def _to_float(c, what: str = "a coefficient") -> float:
    try:
        return float(c)
    except OverflowError as exc:
        raise FloatRangeError(f"{what} is past the float range") from exc


def mi_order(alpha) -> int:
    return sum(alpha)


def mi_factorial(alpha) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def grlex_key(alpha):
    """Graded-lexicographic sort key (total order first, then lex)."""
    return (sum(alpha), alpha)


def _is_exact_scalar(c) -> bool:
    return isinstance(c, (Fraction, int))


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class Poly:
    """Sparse polynomial in ``dim`` variables.

    ``terms`` maps exponent tuples to nonzero coefficients.  All coefficients
    are either exact (Fraction/int) or float; mixing is resolved toward float.
    """

    __slots__ = ("dim", "terms", "exact")

    def __init__(self, dim: int, terms: dict | None = None, exact: bool | None = None):
        self.dim = dim
        terms = dict(terms or {})
        if exact is None:
            exact = all(_is_exact_scalar(c) for c in terms.values())
        cast = _as_fraction if exact else float
        terms = {a: v for a, c in terms.items() if c and (v := cast(c))}
        for a in terms:
            if len(a) != dim or any(k < 0 for k in a):
                raise ValueError(f"bad multiindex {a} for dim {dim}")
        self.terms = terms
        self.exact = exact

    @staticmethod
    def _of(dim: int, terms: dict, *exact: bool) -> "Poly":
        """Arithmetic's result ``terms`` on valid operands of the kinds ``exact``:
        of one kind, only its zeros go; mixed, the validating constructor."""
        if len(set(exact)) > 1:
            return Poly(dim, terms, exact=False)
        P = object.__new__(Poly)
        P.dim, P.terms, P.exact = dim, {a: c for a, c in terms.items() if c}, exact[0]
        return P

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Poly":
        return Poly(dim, {})

    @staticmethod
    def constant(dim: int, c) -> "Poly":
        return Poly(dim, {(0,) * dim: c})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(mi_order(a) for a in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def coeff(self, alpha):
        return self.terms.get(tuple(alpha), Fraction(0) if self.exact else 0.0)

    def __eq__(self, other):
        return isinstance(other, Poly) and (self.dim, self.terms) == (other.dim, other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for a, c in self.sorted_terms():
            mono = "*".join(f"z{k}^{e}" for k, e in enumerate(a) if e) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0) + c
        return Poly._of(self.dim, out, self.exact, other.exact)

    def __neg__(self) -> "Poly":
        return Poly._of(self.dim, {a: -c for a, c in self.terms.items()}, self.exact)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        if c == 0:
            return Poly.zero(self.dim)
        # a scalar of neither kind (a numpy float, say) counts as mixed
        kind = True if _is_exact_scalar(c) else False if type(c) is float else None
        return Poly._of(self.dim, {a: v * c for a, v in self.terms.items()}, self.exact, kind)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Poly._of(self.dim, _mul_terms(self.terms, other.terms),
                        self.exact, other.exact)

    # -- restricted views ----------------------------------------------------

    def homogeneous_part(self, degree: int) -> "Poly":
        return Poly._of(self.dim, {a: c for a, c in self.terms.items()
                                   if mi_order(a) == degree}, self.exact)


# -- operations on polynomials ------------------------------------------------


def _mul_terms(P: dict, Q: dict) -> dict:
    """The product of two term dicts, P's terms outer and Q's inner, with
    the zeros of its sums kept: the one term-product loop."""
    out: dict = {}
    for a, ca in P.items():
        for b, cb in Q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return out


def partial_derivative(P: Poly, alpha) -> Poly:
    """Iterated partial derivative d^alpha P, exact on exact input."""
    alpha = tuple(alpha)
    if len(alpha) != P.dim:
        raise ValueError("dimension mismatch")
    # a -> a - alpha is one to one, and d^alpha z^a = a!/(a - alpha)! z^(a - alpha)
    out = {tuple(x - y for x, y in zip(a, alpha)): c * math.prod(map(math.perm, a, alpha))
           for a, c in P.terms.items() if all(x >= y for x, y in zip(a, alpha))}
    return Poly._of(P.dim, out, P.exact)


# -- matrices ------------------------------------------------------------------


def _as_matrix(M):
    """Normalize to a tuple-of-tuples (exact) or 2d ndarray (float); an
    ``object`` ndarray is read like nested sequences."""
    if isinstance(M, np.ndarray) and M.dtype != object:
        return M
    out = tuple(tuple(row) for row in M)
    if all(_is_exact_scalar(x) for row in out for x in row):
        return tuple(tuple(_as_fraction(x) for x in row) for row in out)
    return np.array([[float(x) for x in row] for row in out])


def matrix_is_exact(M) -> bool:
    return not isinstance(M, np.ndarray)


@dataclass
class GroupElement:
    """A triple (A, B, C): row mixer, column mixer, variable change."""

    A: object
    B: object
    C: object
    volume_preserving: bool = True

    def __post_init__(self):
        self.A = _as_matrix(self.A)
        self.B = _as_matrix(self.B)
        self.C = _as_matrix(self.C)
        for name, M in (("A", self.A), ("B", self.B), ("C", self.C)):
            if not _is_square(M):
                raise ValueError(f"{name} is not square")
        if not _invertible(self.C):
            raise ValueError("C is numerically singular")
        if self.volume_preserving:
            for name, M in (("A", self.A), ("B", self.B)):
                d = _num_det(M)
                if abs(abs(d) - 1.0) > 1e-9:
                    raise ValueError(f"|det {name}| = {abs(d)} is not 1")

    def det_C(self) -> float:
        return _num_det(self.C)


def _is_square(M) -> bool:
    """Whether M, as :func:`_as_matrix` returns it, is a square matrix."""
    if isinstance(M, np.ndarray):
        return M.ndim == 2 and M.shape[0] == M.shape[1]
    return all(len(row) == len(M) for row in M)


def _num_det(M) -> float:
    if isinstance(M, np.ndarray):
        return float(np.linalg.det(M))
    return float(exact_det(M))


def _invertible(M) -> bool:
    """Exact matrices: det != 0.  Float matrices: finite entries and
    sigma_min > SINGULAR_REL * sigma_max, a test that does not change when M
    is scaled."""
    if not isinstance(M, np.ndarray):
        return exact_det(M) != 0
    if M.size == 0:
        return True
    if not np.all(np.isfinite(M)):
        return False
    s = np.linalg.svd(M, compute_uv=False)
    return bool(s[-1] > SINGULAR_REL * s[0])


class PolyMatrix:
    """A p x q matrix of polynomials in d shared variables."""

    __slots__ = ("p", "q", "d", "entries")

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        self.entries = [list(row) for row in entries]
        self.p = len(self.entries)
        self.q = len(self.entries[0]) if self.p else 0
        dims = {e.dim for row in self.entries for e in row}
        if len(dims) > 1:
            raise ValueError("entries disagree on variable count")
        self.d = dims.pop() if dims else 0

    @staticmethod
    def identity(n: int, d: int) -> "PolyMatrix":
        return PolyMatrix([[Poly.constant(d, int(i == j)) for j in range(n)]
                           for i in range(n)])

    def degree(self) -> int:
        return max((e.degree() for row in self.entries for e in row), default=-1)

    @property
    def exact(self) -> bool:
        return all(e.exact for row in self.entries for e in row)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __repr__(self):
        return "PolyMatrix(%dx%d in %d vars)" % (self.p, self.q, self.d)


# -- the dense layer ------------------------------------------------------------


class GradedBasis:
    """Monomials z^alpha in d variables of degree <= D, in grlex order.

    ``fac`` holds the alpha! weights of the norm and ``exps`` the exponents as
    rows.  ``plan`` builds the symmetric power S(C) degree by degree: the
    column of alpha is the column of its parent alpha - e_k (k the first
    variable of alpha) times the linear form (C^T z)_k, and ``mul[l]`` maps
    each monomial of the degree below to its product with z_l.  The same
    parents build the table of monomials at points (:meth:`monomials`)
    through ``runs``: in grlex order the monomials of one degree whose first
    variable is k are consecutive, and so are their parents (those of the
    degree below with no earlier variable), so each such run is one slice of
    rows times z_k.
    """

    def __init__(self, d: int, D: int):
        self.d, self.D = d, D
        self.alphas = sorted((a for a in itertools.product(range(D + 1), repeat=d)
                              if sum(a) <= D), key=grlex_key)
        self.index = {a: m for m, a in enumerate(self.alphas)}
        self.exps = np.array(self.alphas, dtype=float).reshape(len(self.alphas), d)
        # exact integers while alpha! fits in int64 (D <= 20)
        self.fac = np.array([mi_factorial(a) for a in self.alphas],
                            dtype=int if D <= 20 else float)
        # degree n occupies alphas[start[n]:start[n + 1]]
        start = [sum(1 for a in self.alphas if sum(a) < n) for n in range(D + 2)]
        self.plan, self.runs = [], []
        for n in range(1, D + 1):
            cols = self.alphas[start[n]:start[n + 1]]
            ks = [next(k for k, e in enumerate(a) if e) for a in cols]
            parents = [self.index[_shift(a, k, -1)] for a, k in zip(cols, ks)]
            below = self.alphas[start[n - 1]:start[n]]
            mul = [np.array([self.index[_shift(b, l, 1)] for b in below], dtype=int)
                   for l in range(d)]
            self.plan.append((start[n - 1], start[n], start[n + 1],
                              np.array(parents, dtype=int), np.array(ks, dtype=int),
                              mul))
            for k, run in itertools.groupby(range(len(cols)), key=ks.__getitem__):
                run = list(run)
                self.runs.append((slice(start[n] + run[0], start[n] + run[-1] + 1),
                                  slice(parents[run[0]], parents[run[0]] + len(run)), k))

    def sym_power(self, C: np.ndarray) -> np.ndarray:
        """S with S[beta, alpha] the coefficient of z^beta in (C^T z)^alpha."""
        n = len(self.alphas)
        S = np.zeros((n, n), dtype=C.dtype)
        S[0, 0] = 1
        for lo, mid, hi, parents, ks, mul in self.plan:
            prev = S[lo:mid, parents]
            for l in range(self.d):
                S[mul[l], mid:hi] += prev * C[l, ks]
        return S

    def monomials(self, pts, out=None) -> np.ndarray:
        """Z of shape (n_mon, n), Z[m] = pts^alpha_m for points (n, d): one
        row per monomial, so each product is contiguous; row alpha is its
        parent's row times pts[:, k], a run of rows at a time.  Written into
        ``out``, a float array of that shape, when given."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        Z = np.empty((len(self.alphas), len(pts))) if out is None else out
        Z[0] = 1.0
        for rows, parents, k in self.runs:
            np.multiply(Z[parents], pts[:, k], out=Z[rows])
        return Z


def _shift(alpha, k: int, by: int):
    return alpha[:k] + (alpha[k] + by,) + alpha[k + 1:]


@lru_cache(maxsize=None)
def graded_basis(d: int, D: int) -> GradedBasis:
    return GradedBasis(d, D)


def to_dense(P: PolyMatrix, dtype=float):
    """(basis, T): P's coefficients as an array of shape (p, q, n_mon), float
    (FloatRangeError past its range) unless ``dtype=object`` keeps them exact."""
    basis = graded_basis(P.d, max(P.degree(), 0))
    T = np.zeros((P.p, P.q, len(basis.alphas)), dtype=dtype)
    for i, row in enumerate(P.entries):
        for j, e in enumerate(row):
            for a, c in e.terms.items():
                T[i, j, basis.index[a]] = c if dtype is object else _to_float(c)
    return basis, T


def from_dense(basis: GradedBasis, T: np.ndarray) -> PolyMatrix:
    """The PolyMatrix with coefficients T over ``basis``: exact for an object
    array of exact scalars, float otherwise."""
    exact = T.dtype == object
    rows = [[Poly(basis.d, {basis.alphas[m]: e[m] for m in np.flatnonzero(e)},
                  exact=exact) for e in row] for row in T]
    return PolyMatrix(rows)


def _mix(T: np.ndarray, A: np.ndarray, B: np.ndarray, S: np.ndarray) -> np.ndarray:
    p, q, n = T.shape
    X = T @ S.T
    return B @ (A @ X.reshape(p, q * n)).reshape(p, q, n)


def act_dense(basis: GradedBasis, T: np.ndarray, A, B, C) -> np.ndarray:
    """The action on a dense matrix, entry (k, l) being
    sum_{i,j} A[k][i] B[l][j] T_ij(C^T z), in the dtype of T.

    Float T: a coefficient is set to zero when it lies within the running
    round-off bound of its sums: the same products on |A|, |T|, |B| and
    S(|C|), times (n_mon + p + q + D) machine epsilons.  The bound is
    relative to each coefficient's own sums, so an exact input in the
    identity frame is never cut, whatever the spread of its coefficients.

    Object T (exact coefficients): there is no round-off to cut.  Each
    operand is written as integers over one denominator, so the sums are
    integer sums, and a degree-n coefficient is divided once, by
    den(T) den(A) den(B) den(C)^n."""
    A, B, C = (np.asarray(M, dtype=T.dtype) for M in (A, B, C))
    if T.dtype == object:
        (T, dT), (A, dA), (B, dB), (C, dC) = (
            (np.array(N, dtype=object).reshape(M.shape), L)
            for M in (T, A, B, C) for N, L in [integer_scale(M.ravel())])
        den = np.array([dT * dA * dB * dC ** sum(a) for a in basis.alphas], dtype=object)
        return np.frompyfunc(Fraction, 2, 1)(_mix(T, A, B, basis.sym_power(C)), den)
    p, q, n = T.shape
    X = _mix(T, A, B, basis.sym_power(C))
    bound = _mix(np.abs(T), np.abs(A), np.abs(B), basis.sym_power(np.abs(C)))
    cut = (n + p + q + basis.D) * np.finfo(float).eps * bound
    return np.where(np.abs(X) > cut, X, 0.0)


def act_group(P: PolyMatrix, g: GroupElement) -> PolyMatrix:
    """Apply the representation: mix rows by A, columns by B, substitute C.

    The result entry (k, l) is sum_{i,j} A[k][i] B[l][j] P_ij(C^T z), from
    :func:`act_dense`: exact when P and g are, float otherwise.
    """
    if (len(g.A) != P.p) or (len(g.B) != P.q) or (len(g.C) != P.d):
        raise ValueError("group element shape does not match matrix")
    exact = P.exact and all(matrix_is_exact(M) for M in (g.A, g.B, g.C))
    basis, T = to_dense(P, object if exact else float)
    return from_dense(basis, act_dense(basis, T, g.A, g.B, g.C))


def hs_norm_sq_exact(P: PolyMatrix) -> Fraction:
    total = Fraction(0)
    for row in P.entries:
        for e in row:
            if not e.exact:
                raise ValueError("exact norm of a float matrix")
            for a, c in e.terms.items():
                total += mi_factorial(a) * c * c
    return total


def hs_norm(P: PolyMatrix) -> float:
    """Hilbert-Schmidt norm sqrt(sum alpha! c^2), summed over (c / s)^2 for the
    power of two s <= max |c| < 2s: no square overflows, the largest never underflows."""
    terms = [(a, _to_float(c)) for row in P.entries for e in row for a, c in e.terms.items()]
    s = math.ldexp(0.5, math.frexp(max((abs(c) for _, c in terms), default=0.0))[1])
    total = 0.0
    for a, c in terms:
        total += mi_factorial(a) * (c / s) * (c / s)
    return s * math.sqrt(total)


@dataclass
class SupportSet:
    """Nonzero-coefficient triples (i, j, alpha) with their weight points."""

    p: int
    q: int
    d: int
    triples: list

    def weight_points(self):
        """Points (e^i; e^j; alpha) in Z^p x Z^q x Z^d, as int tuples."""
        pts = []
        for (i, j, alpha) in self.triples:
            v = [0] * (self.p + self.q) + list(alpha)
            v[i] = 1
            v[self.p + j] = 1
            pts.append(tuple(v))
        return pts

    def __len__(self):
        return len(self.triples)


def support_set(P: PolyMatrix) -> SupportSet:
    """All (i, j, alpha) with a nonzero coefficient, in (i, j, grlex) order."""
    triples = []
    for i in range(P.p):
        for j in range(P.q):
            for a in sorted(P.entries[i][j].terms, key=grlex_key):
                triples.append((i, j, a))
    return SupportSet(P.p, P.q, P.d, triples)


def balanced_rows(points: list, sizes, p: int, q: int, sigma=None):
    """Equality rows sum_t theta_t x_t = (1/p, ..; 1/q, ..; sigma, ..), then
    sum_t theta_t = 1, for points x_t made of a row part, a column part and
    a sigma part of the given ``sizes``.  With ``sigma`` None, sigma is a
    free last variable, moved to the left side of the sigma-part rows."""
    nr, nc, ns = sizes
    free = sigma is None  # variables: theta | sigma
    A = [[pt[c] for pt in points] for c in range(nr + nc + ns)]
    A.append([1] * len(points))
    b = ([Fraction(1, p)] * nr + [Fraction(1, q)] * nc
         + [0 if free else sigma] * ns + [1])
    if free:
        for c, row in enumerate(A):
            row.append(-1 if nr + nc <= c < nr + nc + ns else 0)
    return A, b


# -- serialization --------------------------------------------------------------


def poly_to_json(P: Poly) -> list:
    if not P.exact:
        raise ValueError("only exact polynomials serialize")
    return [{"alpha": list(a), **fraction_to_json(c)} for a, c in P.sorted_terms()]


def is_int(v) -> bool:
    """Whether a JSON value is an int and not a bool (an int subclass)."""
    return type(v) is int


def fraction_to_json(x) -> dict:
    """The exact scalar x as {"num": n, "den": d}, d > 0; a float raises
    TypeError."""
    x = _as_fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def fraction_from_json(obj: dict) -> Fraction:
    """The rational {"num": n, "den": d}: two integers, d nonzero."""
    num, den = obj["num"], obj["den"]
    if not (is_int(num) and is_int(den) and den):
        raise ValueError(f"{num!r}/{den!r} is not an integer over a nonzero integer")
    return Fraction(num, den)


def number_from_json(v) -> Fraction:
    """A JSON number field: an int (not a bool), a finite float (its exact
    binary value) or {"num": n, "den": d}; anything else raises TypeError."""
    if isinstance(v, dict):
        return fraction_from_json(v)
    if is_int(v) or type(v) is float and math.isfinite(v):
        return Fraction(v)
    raise TypeError(f"{v!r} is not a finite number")


def poly_from_json(dim: int, terms: Iterable[dict]) -> Poly:
    out = {}
    for t in terms:
        if not all(map(is_int, t["alpha"])):
            raise ValueError(f"exponents {t['alpha']!r} are not all integers")
        out[tuple(t["alpha"])] = fraction_from_json(t)
    return Poly(dim, out)


def polymatrix_to_json(P: PolyMatrix) -> dict:
    return {
        "p": P.p,
        "q": P.q,
        "d": P.d,
        "entries": [[poly_to_json(e) for e in row] for row in P.entries],
    }


def polymatrix_from_json(obj: dict) -> PolyMatrix:
    p, q, d = obj["p"], obj["q"], obj["d"]
    if not all(is_int(n) and n >= 0 for n in (p, q, d)):
        raise ValueError(f"p, q and d must be nonnegative integers: {p!r}, {q!r}, {d!r}")
    grid = obj["entries"]
    if len(grid) != p or any(len(row) != q for row in grid) or (q and not p):
        raise ValueError(f"entry grid does not match the declared {p} x {q}")
    return PolyMatrix([[poly_from_json(d, e) for e in row] for row in grid])
