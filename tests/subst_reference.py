"""Test-only reference: translation and exact evaluation as they were before
both went through the (s, z) lift and specialisation of
``semistab.blockdecomp``.

``diagonal_shift`` substituted each variable by an affine form through the
general substitution kernel, ``_substitute_forms`` (kept in
``tests/act_reference.py``), and ``eval_poly_exact`` summed the terms in
Fractions.  The code is kept as it was, apart from this docstring and the
imports.  The oracle tests require identical exact results, float results
within 1e-15 of the largest coefficient, and float output for float input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from act_reference import _substitute_forms
from semistab.polycore import Poly, _is_exact_scalar


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
