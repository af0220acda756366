"""Test-only reference: ``Poly`` arithmetic, the lifts to (s, z) and the
polynomial matrix product as they were while every result went back through
the validating ``Poly`` constructor, kept verbatim apart from this
docstring, the imports and the methods becoming functions.

``add``, ``neg``, ``sub``, ``scale`` and ``mul`` are the old ``Poly``
operators, ``homogeneous_part`` and ``partial_derivative`` the old views,
``inflate_t`` the lift by repeated products with s_k + z_k, and ``pm_mul``
the product that chains those operators' sums.  The oracle tests require the new
kernels to give the same terms, in the same order and of the same types,
and the same ``exact`` flag.
"""

from __future__ import annotations

from semistab.polycore import Poly, PolyMatrix, _is_exact_scalar, mi_order


def add(P: Poly, Q: Poly) -> Poly:
    if P.dim != Q.dim:
        raise ValueError("dimension mismatch")
    out = dict(P.terms)
    for a, c in Q.terms.items():
        out[a] = out.get(a, 0) + c
    return Poly(P.dim, out, exact=P.exact and Q.exact)


def neg(P: Poly) -> Poly:
    return Poly(P.dim, {a: -c for a, c in P.terms.items()}, exact=P.exact)


def sub(P: Poly, Q: Poly) -> Poly:
    return add(P, neg(Q))


def scale(P: Poly, c) -> Poly:
    if c == 0:
        return Poly.zero(P.dim)
    exact = P.exact and _is_exact_scalar(c)
    return Poly(P.dim, {a: v * c for a, v in P.terms.items()}, exact=exact)


def mul(P: Poly, Q: Poly) -> Poly:
    if P.dim != Q.dim:
        raise ValueError("dimension mismatch")
    out: dict = {}
    for a, ca in P.terms.items():
        for b, cb in Q.terms.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return Poly(P.dim, out, exact=P.exact and Q.exact)


def homogeneous_part(P: Poly, degree: int) -> Poly:
    return Poly(
        P.dim,
        {a: c for a, c in P.terms.items() if mi_order(a) == degree},
        exact=P.exact,
    )


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


def inflate_s(P: Poly, d: int) -> Poly:
    """Poly in s (d vars) -> poly in (s, z) (2d vars), constant in z."""
    return Poly(2 * d, {a + (0,) * d: c for a, c in P.terms.items()}, exact=P.exact)


def inflate_z(P: Poly, d: int) -> Poly:
    """Poly in z (d vars) -> poly in (s, z) (2d vars), constant in s."""
    return Poly(2 * d, {(0,) * d + a: c for a, c in P.terms.items()}, exact=P.exact)


def inflate_t(P: Poly, d: int) -> Poly:
    """Poly in t (d vars) -> poly in (s, z) via t = s + z."""
    out = Poly(2 * d, {}, exact=P.exact)
    for a, c in P.terms.items():
        mono = Poly.constant(2 * d, c)
        for k, e in enumerate(a):
            if e:
                sk = tuple(1 if j == k else 0 for j in range(2 * d))
                zk = tuple(1 if j == d + k else 0 for j in range(2 * d))
                form = Poly(2 * d, {sk: 1, zk: 1})
                for _ in range(e):
                    mono = mul(mono, form)
        out = add(out, mono)
    return out


def pm_mul(X: PolyMatrix, Y: PolyMatrix) -> PolyMatrix:
    if X.q != Y.p:
        raise ValueError("shape mismatch in polynomial matrix product")
    rows = []
    for i in range(X.p):
        row = []
        for j in range(Y.q):
            acc = Poly.zero(X.d)
            for k in range(X.q):
                if not X.entries[i][k].is_zero() and not Y.entries[k][j].is_zero():
                    acc = add(acc, mul(X.entries[i][k], Y.entries[k][j]))
            row.append(acc)
        rows.append(row)
    return PolyMatrix(rows)


def reduced_product(A: PolyMatrix, M: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """A(s) M(s) B(s + z) as a bivariate matrix: A and M in s, B in t."""
    d = M.d
    lift = lambda X, f: PolyMatrix([[f(e, d) for e in row] for row in X.entries])
    return pm_mul(pm_mul(lift(A, inflate_s), lift(M, inflate_s)), lift(B, inflate_t))
