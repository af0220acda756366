"""Test-only reference: the gcd-normalising Gauss-Jordan kernel ``semistab.lp``
used before its Gauss-Jordan ran on the simplex's Edmonds-Bareiss pivot,
kept verbatim apart from this docstring.

Each row is scaled to integers and divided by its gcd, and a row with entry
f is updated against pivot p as (p/g) row - (f/g) pivot row, g = gcd(p, f),
and divided by its gcd again.  The returned (num, den) give
det = den / num * (product of the pivots) for square full-rank input.  The
oracle tests require the kernel to give equal results.
"""

from __future__ import annotations

import math


def _gauss_jordan(rows):
    """Fraction-free Gauss-Jordan on rows given as sequences or
    ``{column: value}`` mappings of rationals.

    Returns (rows, pivot columns, (num, den)): one integer row per pivot, a
    rational multiple of that row of the reduced form, and (num, den) with
    det = den / num * (product of the pivots) for square full-rank input.
    """
    a, num, den = [], 1, 1
    for row in rows:
        vals = {j: v for j, v in (row.items() if isinstance(row, dict)
                                  else enumerate(row)) if v}
        s = math.lcm(*(v.denominator for v in vals.values()))
        ints = {j: v.numerator * (s // v.denominator) for j, v in vals.items()}
        g = math.gcd(*ints.values()) or 1
        a.append({j: v // g for j, v in ints.items()})
        num, den = num * s, den * g
    m = len(a)
    pivots = []
    for c in sorted({j for row in a for j in row}):
        r = len(pivots)
        if r == m:
            break
        i = next((i for i in range(r, m) if c in a[i]), None)
        if i is None:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            num = -num
        prow = a[r]
        p = prow[c]
        for i, row in enumerate(a):
            f = row.get(c)
            if f is None or i == r:
                continue
            g = math.gcd(p, f)
            pg, fg = p // g, f // g
            if pg != 1:
                for k in row:
                    row[k] *= pg
                num *= pg
            for k, v in prow.items():
                x = row.get(k, 0) - fg * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            g = math.gcd(*row.values())
            if g > 1:
                for k in row:
                    row[k] //= g
                den *= g
        pivots.append(c)
    return a[:len(pivots)], pivots, (num, den)
