"""Test-only reference: ``semistab.blockdecomp.useful_tiles`` as it was
before it tested its two boundary conditions directly, kept verbatim apart
from this docstring and the imports.

It listed, for each tile, the blocks of the next row and column (the
``after`` list) and checked each against its neighbour inside the tile.
The oracle test requires the same tiles in the same order.
"""

from __future__ import annotations

from semistab.blockdecomp import BlockDecomposition, Tile


def useful_tiles(decomp: BlockDecomposition) -> list:
    """All interval-product tiles whose immediately-following formal degrees
    strictly dominate the adjacent in-tile ones.  The full tile always
    qualifies."""
    nI = len(decomp.row_groups)
    nJ = len(decomp.col_groups)
    out = []
    for iL in range(nI):
        for iR in range(iL, nI):
            for jL in range(nJ):
                for jR in range(jL, nJ):
                    iR2 = min(iR + 1, nI - 1)
                    jR2 = min(jR + 1, nJ - 1)
                    after = [
                        (i, j)
                        for i in range(iL, iR2 + 1)
                        for j in range(jL, jR2 + 1)
                        if not (i <= iR and j <= jR)
                    ]
                    ok = True
                    for (i, j) in after:
                        if iL <= i - 1 <= iR and jL <= j <= jR:
                            if not decomp.degree(i, j) > decomp.D[i - 1][j]:
                                ok = False
                        if iL <= i <= iR and jL <= j - 1 <= jR:
                            if not decomp.degree(i, j) > decomp.D[i][j - 1]:
                                ok = False
                    if ok:
                        out.append(Tile((iL, iR), (jL, jR)))
    return out
