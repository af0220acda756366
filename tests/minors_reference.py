"""Test-only reference: the maximal minors of a polynomial matrix as
``semistab.blockdecomp.maximal_minors`` computed them while the Laplace
expansion visited every column subset of each row prefix, zero minors
included, kept verbatim apart from this docstring and the imports.  The
oracle tests require the sparse expansion to give every minor with the same
terms in the same order, each coefficient of the same type and repr, and
the same ``exact`` flag.
"""

from __future__ import annotations

import itertools

from semistab.polycore import Poly, PolyMatrix


def maximal_minors(M: PolyMatrix) -> dict:
    """The p x p minors of M, keyed by column subset in combinations order.

    Laplace expansion along each next row, over the minors of the rows
    above: ring operations only, so the minors are exact for an exact M and
    float otherwise.  The minors of the rows above are kept as term dicts
    (integral Fractions as ints, which multiply faster), and a zero entry of
    the row or a zero minor above adds no work.  p > q has no maximal minor.
    """
    exact = M.exact
    minors = {(): {(0,) * M.d: 1}}
    for k, row in enumerate(M.entries):
        below, minors = minors, {}
        # (terms, terms negated) of each entry; an empty entry is zero
        signed = []
        for e in row:
            terms = {a: c.numerator if exact and c.denominator == 1 else c
                     for a, c in e.terms.items()}
            signed.append((terms, {a: -c for a, c in terms.items()}))
        for S in itertools.combinations(range(M.q), k + 1):
            out = {}
            for i, j in enumerate(S):
                if not signed[j][0] or not (sub := below[S[:i] + S[i + 1:]]):
                    continue
                for a, ca in signed[j][(k - i) % 2].items():
                    for b, cb in sub.items():
                        ab = tuple(x + y for x, y in zip(a, b))
                        out[ab] = out[ab] + ca * cb if ab in out else ca * cb
            minors[S] = {a: c for a, c in out.items() if c}
    return {S: Poly(M.d, terms, exact=exact) for S, terms in minors.items()}

