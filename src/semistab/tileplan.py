"""Convex-combination plans over useful tiles.

Each useful tile T = I x J with degeneracy parameter sigma contributes a
group-indexed marker point (1_I / p_I; 1_J / q_J; sigma).  A plan is a set
of nonnegative rational weights theta summing to one whose weighted marker
average hits the balanced target (1/p, ..., 1/p; 1/q, ..., 1/q; sigma_total);
the sublevel exponent is then tau = 1 / (p sigma_total).  All arithmetic is
exact; the LP treats sigma_total as a free variable unless pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blockdecomp import BlockDecomposition, Tile
from .lp import solve_eq_lp
from .polycore import balanced_rows, fraction_to_json, is_int


@dataclass
class TilePoint:
    """Group-indexed marker (row part; column part; sigma)."""

    row_part: tuple       # length m*+1, Fractions
    col_part: tuple       # length m+1, Fractions
    sigma: Fraction
    tile: Tile | None = None

    def coords(self):
        return tuple(self.row_part) + tuple(self.col_part) + (self.sigma,)

    def to_json(self):
        enc = lambda xs: [fraction_to_json(x) for x in xs]
        out = {"row_part": enc(self.row_part), "col_part": enc(self.col_part),
               "sigma": fraction_to_json(self.sigma)}
        if self.tile is not None:
            out["tile"] = self.tile.to_json()
        return out


@dataclass
class TilePlan:
    points: list
    theta: list           # Fractions, >= 0, summing to 1
    sigma_total: Fraction
    tau: Fraction

    def to_json(self):
        return {
            "theta": [fraction_to_json(t) for t in self.theta],
            "sigma": fraction_to_json(self.sigma_total),
            "tau": fraction_to_json(self.tau),
            "tiles": [pt.to_json() for pt in self.points],
        }


def tile_point(decomp: BlockDecomposition, tile: Tile, sigma) -> TilePoint:
    """Marker point of a tile: 1/p_I on the row groups in I, 1/q_J on the
    column groups in J, sigma in the last coordinate.  ValueError when the
    tile's intervals are not integer intervals inside the decomposition's
    groups."""
    sigma = Fraction(sigma)
    iL, iR = tile.I
    jL, jR = tile.J
    nI, nJ = len(decomp.row_groups), len(decomp.col_groups)
    if not (all(map(is_int, (iL, iR, jL, jR)))
            and 0 <= iL <= iR < nI and 0 <= jL <= jR < nJ):
        raise ValueError(f"tile {tile.I} x {tile.J} is not a pair of integer "
                         f"intervals inside the {nI} x {nJ} groups")
    p_I = sum(decomp.row_groups[iL:iR + 1])
    q_J = sum(decomp.col_groups[jL:jR + 1])
    row = tuple(
        Fraction(1, p_I) if iL <= i <= iR else Fraction(0)
        for i in range(len(decomp.row_groups))
    )
    col = tuple(
        Fraction(1, q_J) if jL <= j <= jR else Fraction(0)
        for j in range(len(decomp.col_groups))
    )
    return TilePoint(row, col, sigma, Tile(tile.I, tile.J, sigma))


def solve_plan(points: list, p: int, q: int, sigma=None) -> TilePlan | None:
    """Exact LP for plan weights hitting the balanced target.

    ``sigma`` pins the total; otherwise the largest feasible value is taken.
    Returns None when infeasible.  Among optimal vertices the simplex's
    Bland ordering makes the answer deterministic; when the solution is
    unique (the generic case for the worked fixtures) the choice doesn't
    matter.
    """
    if not points:
        return None
    n = len(points)
    sizes = (len(points[0].row_part), len(points[0].col_part), 1)
    # variables: theta (n) | sigma_total
    A, b = balanced_rows([pt.coords() for pt in points], sizes, p, q)
    if sigma is not None:
        A.append([0] * n + [1])
        b.append(Fraction(sigma))
    obj = [0] * n + [1]
    res = solve_eq_lp(A, b, obj, maximize=True)
    if res.status != "optimal":
        return None
    theta = res.x[:n]
    sig = res.x[n]
    if sig <= 0:
        return None
    tau = Fraction(1, 1) / (p * sig)
    return TilePlan(points, theta, sig, tau)
