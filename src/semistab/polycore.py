"""Sparse multiindex polynomials, polynomial-valued matrices and the group action.

Coefficients live in one of two layers:

* the exact layer (``fractions.Fraction``), used for every decision that must
  be a certificate (vanishing orders, support sets, LP data), and
* a double-precision layer, produced whenever a matrix is pushed through a
  non-rational change of basis.  Float coefficients below 1e-14 relative to
  the largest coefficient of the result are pruned.

A polynomial is a mapping ``multiindex -> coefficient`` with no stored zero.
Multiindices are plain tuples of nonnegative ints; the canonical term order
is graded lexicographic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

FLOAT_PRUNE_REL = 1e-14

Multiindex = tuple


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
        if exact:
            terms = {a: _as_fraction(c) for a, c in terms.items() if c != 0}
        else:
            terms = {a: float(c) for a, c in terms.items()}
            if terms:
                big = max(abs(c) for c in terms.values())
                cut = FLOAT_PRUNE_REL * big
                terms = {a: c for a, c in terms.items() if abs(c) > cut}
        for a in terms:
            if len(a) != dim or any(k < 0 for k in a):
                raise ValueError(f"bad multiindex {a} for dim {dim}")
        self.terms = terms
        self.exact = exact

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Poly":
        return Poly(dim, {})

    @staticmethod
    def constant(dim: int, c) -> "Poly":
        return Poly(dim, {(0,) * dim: c})

    @staticmethod
    def monomial(dim: int, alpha, c=1) -> "Poly":
        return Poly(dim, {tuple(alpha): c})

    @staticmethod
    def variable(dim: int, k: int) -> "Poly":
        alpha = [0] * dim
        alpha[k] = 1
        return Poly(dim, {tuple(alpha): 1})

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
        return (
            isinstance(other, Poly)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, tuple(self.sorted_terms())))

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
        return Poly(self.dim, out, exact=self.exact and other.exact)

    def __neg__(self) -> "Poly":
        return Poly(self.dim, {a: -c for a, c in self.terms.items()}, exact=self.exact)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        if c == 0:
            return Poly.zero(self.dim)
        exact = self.exact and _is_exact_scalar(c)
        return Poly(self.dim, {a: v * c for a, v in self.terms.items()}, exact=exact)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0) + ca * cb
        return Poly(self.dim, out, exact=self.exact and other.exact)

    def pow(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.dim, 1)
        for _ in range(n):
            result = result * self
        return result

    # -- restricted views ----------------------------------------------------

    def homogeneous_part(self, degree: int) -> "Poly":
        return Poly(
            self.dim,
            {a: c for a, c in self.terms.items() if mi_order(a) == degree},
            exact=self.exact,
        )

    def low_order(self) -> int:
        """Smallest total degree carrying a nonzero term (-1 for zero)."""
        if not self.terms:
            return -1
        return min(mi_order(a) for a in self.terms)


# -- operations on polynomials ------------------------------------------------


def eval_poly(P: Poly, point: Sequence[float]) -> float:
    """Evaluate at a real point, in double precision."""
    if len(point) != P.dim:
        raise ValueError(f"point has length {len(point)}, expected {P.dim}")
    total = 0.0
    for a, c in P.terms.items():
        m = 1.0
        for x, e in zip(point, a):
            if e:
                m *= float(x) ** e
        total += float(c) * m
    return total


def eval_poly_exact(P: Poly, point: Sequence[Fraction]) -> Fraction:
    if len(point) != P.dim:
        raise ValueError("dimension mismatch")
    total = Fraction(0)
    for a, c in P.terms.items():
        m = Fraction(1)
        for x, e in zip(point, a):
            if e:
                m *= Fraction(x) ** e
        total += c * m
    return total


def partial_derivative(P: Poly, alpha) -> Poly:
    """Iterated partial derivative d^alpha P, exact on exact input."""
    alpha = tuple(alpha)
    if len(alpha) != P.dim:
        raise ValueError("dimension mismatch")
    out: dict = {}
    for a, c in P.terms.items():
        if any(x < y for x, y in zip(a, alpha)):
            continue
        fac = 1
        new = []
        for x, y in zip(a, alpha):
            new.append(x - y)
            for j in range(y):
                fac *= x - j
        out[tuple(new)] = out.get(tuple(new), 0) + c * fac
    return Poly(P.dim, out, exact=P.exact)


def taylor_coeff(P: Poly, alpha):
    """Value of d^alpha P at the origin (= alpha! times the coefficient)."""
    alpha = tuple(alpha)
    return P.terms.get(alpha, Fraction(0) if P.exact else 0.0) * mi_factorial(alpha)


def _substitute_forms(P: Poly, forms: list[Poly]) -> Poly:
    """Substitute variable k by forms[k]; shared power cache per call."""
    if len(forms) != P.dim:
        raise ValueError("need one form per variable")
    dim_out = forms[0].dim if forms else P.dim
    cache: list[dict[int, Poly]] = [dict() for _ in forms]

    def power(k: int, e: int) -> Poly:
        got = cache[k].get(e)
        if got is None:
            got = forms[k].pow(e)
            cache[k][e] = got
        return got

    total = Poly.zero(dim_out)
    for a, c in P.terms.items():
        mono = Poly.constant(dim_out, 1)
        for k, e in enumerate(a):
            if e:
                mono = mono * power(k, e)
        total = total + mono.scale(c)
    return total


def substitute_linear(P: Poly, C) -> Poly:
    """Return z -> P(C^T z), expanded and recollected.

    Exact when C has rational entries (sequence of rows of Fraction/int),
    double precision when C is a float array.
    """
    C = _as_matrix(C, P.dim, P.dim)
    exact = matrix_is_exact(C)
    d = P.dim
    forms = []
    for k in range(d):
        # (C^T z)_k = sum_l C[l][k] z_l
        terms = {}
        for l in range(d):
            c = C[l][k]
            if c != 0:
                key = tuple(1 if j == l else 0 for j in range(d))
                terms[key] = c
        forms.append(Poly(d, terms, exact=exact))
    return _substitute_forms(P, forms)


def diagonal_shift(P: Poly, s0) -> Poly:
    """Return z -> P(s0 + z), exact for rational shifts."""
    if len(s0) != P.dim:
        raise ValueError("dimension mismatch")
    d = P.dim
    exact = P.exact and all(_is_exact_scalar(x) or isinstance(x, Fraction) for x in s0)
    forms = []
    for k in range(d):
        key = tuple(1 if j == k else 0 for j in range(d))
        terms = {key: 1}
        if s0[k] != 0:
            terms[(0,) * d] = s0[k]
        forms.append(Poly(d, terms, exact=exact))
    return _substitute_forms(P, forms)


# -- matrices ------------------------------------------------------------------


def _as_matrix(M, rows: int | None = None, cols: int | None = None):
    """Normalize to a tuple-of-tuples (exact) or 2d ndarray (float)."""
    if isinstance(M, np.ndarray):
        out = M
        r, c = M.shape
    else:
        out = tuple(tuple(row) for row in M)
        r = len(out)
        c = len(out[0]) if r else 0
        if all(_is_exact_scalar(x) for row in out for x in row):
            out = tuple(tuple(_as_fraction(x) for x in row) for row in out)
        else:
            out = np.array([[float(x) for x in row] for row in out])
    if rows is not None and r != rows:
        raise ValueError(f"expected {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise ValueError(f"expected {cols} cols, got {c}")
    return out


def matrix_is_exact(M) -> bool:
    return not isinstance(M, np.ndarray)


def exact_det(M) -> Fraction:
    """Determinant of a square rational matrix by fraction-free elimination."""
    n = len(M)
    a = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = Fraction(1) / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


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
        detC = _num_det(self.C)
        if abs(detC) <= 1e-12:
            raise ValueError("C is numerically singular")
        if self.volume_preserving:
            for name, M in (("A", self.A), ("B", self.B)):
                d = _num_det(M)
                if abs(abs(d) - 1.0) > 1e-9:
                    raise ValueError(f"|det {name}| = {abs(d)} is not 1")

    @staticmethod
    def identity(p: int, q: int, d: int) -> "GroupElement":
        eye = lambda n: tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        )
        return GroupElement(eye(p), eye(q), eye(d))

    def det_C(self) -> float:
        return _num_det(self.C)


def _num_det(M) -> float:
    if isinstance(M, np.ndarray):
        return float(np.linalg.det(M))
    return float(exact_det(M))


class PolyMatrix:
    """A p x q matrix of polynomials in d shared variables."""

    __slots__ = ("p", "q", "d", "entries", "degree_cap")

    def __init__(self, entries: Sequence[Sequence[Poly]], degree_cap: int | None = None):
        self.entries = [list(row) for row in entries]
        self.p = len(self.entries)
        self.q = len(self.entries[0]) if self.p else 0
        dims = {e.dim for row in self.entries for e in row}
        if len(dims) > 1:
            raise ValueError("entries disagree on variable count")
        self.d = dims.pop() if dims else 0
        deg = self.degree()
        self.degree_cap = deg if degree_cap is None else degree_cap
        if deg > self.degree_cap:
            raise ValueError(f"entry degree {deg} exceeds declared cap {self.degree_cap}")

    @staticmethod
    def zero(p: int, q: int, d: int) -> "PolyMatrix":
        return PolyMatrix([[Poly.zero(d) for _ in range(q)] for _ in range(p)])

    def degree(self) -> int:
        return max((e.degree() for row in self.entries for e in row), default=-1)

    @property
    def exact(self) -> bool:
        return all(e.exact for row in self.entries for e in row)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.entries == other.entries
        )

    def map(self, f) -> "PolyMatrix":
        return PolyMatrix([[f(e) for e in row] for row in self.entries],
                          degree_cap=None)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for i in range(self.p)]
                           for j in range(self.q)])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __repr__(self):
        return "PolyMatrix(%dx%d in %d vars)" % (self.p, self.q, self.d)


def act_group(P: PolyMatrix, g: GroupElement) -> PolyMatrix:
    """Apply the representation: mix rows by A, columns by B, substitute C.

    The result entry (k, l) is sum_{i,j} A[k][i] B[l][j] P_ij(C^T z).
    """
    A, B, C = g.A, g.B, g.C
    if (len(A) != P.p) or (len(B) != P.q) or (len(C) != P.d):
        raise ValueError("group element shape does not match matrix")
    sub = [[substitute_linear(P.entries[i][j], C) for j in range(P.q)]
           for i in range(P.p)]
    exact_mix = matrix_is_exact(A) and matrix_is_exact(B)
    rows = []
    for k in range(P.p):
        row = []
        for l in range(P.q):
            acc = Poly.zero(P.d)
            for i in range(P.p):
                a = A[k][i]
                if a == 0:
                    continue
                for j in range(P.q):
                    b = B[l][j]
                    if b == 0:
                        continue
                    coef = a * b if exact_mix else float(a) * float(b)
                    acc = acc + sub[i][j].scale(coef)
            row.append(acc)
        rows.append(row)
    return PolyMatrix(rows, degree_cap=max(P.degree_cap, 0))


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
    """Hilbert-Schmidt norm: sqrt of sum over entries/terms of alpha! c^2."""
    total = 0.0
    for row in P.entries:
        for e in row:
            for a, c in e.terms.items():
                total += mi_factorial(a) * float(c) * float(c)
    return math.sqrt(total)


@dataclass
class SupportSet:
    """Nonzero-coefficient triples (i, j, alpha) with their weight points."""

    p: int
    q: int
    d: int
    triples: list

    def weight_points(self):
        """Points (e^i; e^j; alpha) in R^p x R^q x R^d, as Fraction tuples."""
        pts = []
        for (i, j, alpha) in self.triples:
            v = [Fraction(0)] * (self.p + self.q + self.d)
            v[i] = Fraction(1)
            v[self.p + j] = Fraction(1)
            for k, a in enumerate(alpha):
                v[self.p + self.q + k] = Fraction(a)
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


# -- serialization --------------------------------------------------------------


def poly_to_json(P: Poly) -> list:
    if not P.exact:
        raise ValueError("only exact polynomials serialize")
    return [
        {"alpha": list(a), "num": c.numerator, "den": c.denominator}
        for a, c in P.sorted_terms()
    ]


def poly_from_json(dim: int, terms: Iterable[dict]) -> Poly:
    return Poly(dim, {tuple(t["alpha"]): Fraction(t["num"], t["den"]) for t in terms})


def polymatrix_to_json(P: PolyMatrix) -> dict:
    return {
        "p": P.p,
        "q": P.q,
        "d": P.d,
        "entries": [[poly_to_json(e) for e in row] for row in P.entries],
    }


def polymatrix_from_json(obj: dict) -> PolyMatrix:
    p, q, d = obj["p"], obj["q"], obj["d"]
    entries = [[poly_from_json(d, obj["entries"][i][j]) for j in range(q)]
               for i in range(p)]
    M = PolyMatrix(entries)
    if (M.p, M.q) != (p, q):
        raise ValueError("entry grid does not match declared shape")
    return M
