import json
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import tiles_reference
from semistab import blockdecomp as bd
from semistab import fixtures as fx
from semistab.blockdecomp import (
    BlockDecomposition,
    Tile,
    eliminate,
    has_generic_rank_p,
    pm_mul,
    reduced_matrix,
    specialize_s,
    tile_map,
    unimodular,
    useful_tiles,
    vanishing_degrees,
    verify_block_decomposition,
)
from semistab.lp import exact_solve
from semistab.polycore import (
    GroupElement,
    Poly,
    PolyMatrix,
    act_group,
    grlex_key,
    polymatrix_from_json,
    polymatrix_to_json,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- elimination ----------------------------------------------------------------------


def test_eliminate_taylor_line():
    # [1, s, s^2/2] reduces to [1, -z, z^2/2] in z = t - s (the flipped
    # middle sign is the stated convention difference)
    M = PolyMatrix([[Poly.constant(1, 1), Poly(1, {(1,): 1}),
                     Poly(1, {(2,): F(1, 2)})]])
    A, B, R, dec = eliminate(M)
    assert R.entries[0][0] == Poly(2, {(0, 0): 1})
    assert R.entries[0][1] == Poly(2, {(0, 1): -1})
    assert R.entries[0][2] == Poly(2, {(0, 2): F(1, 2)})
    assert dec.col_groups == [1, 1, 1]
    assert dec.D == [[0, 1, 2]]
    assert verify_block_decomposition(M, dec).ok


def test_eliminate_constant_matrix():
    M = PolyMatrix([[Poly.constant(1, 1), Poly.constant(1, 2)]])
    A, B, R, dec = eliminate(M)
    assert unimodular(1, A)
    assert unimodular(1, B)
    rep = verify_block_decomposition(M, dec)
    assert rep.ok


def test_eliminate_example61_reproduces_display():
    M = fx.example61_matrix()
    A, B, R, dec = eliminate(M)
    assert R == fx.example61_reduced_display()
    assert dec.row_groups == [2, 2]
    assert dec.col_groups == [4, 4, 1]
    assert dec.D == [[0, 1, 2], [0, 1, 3]]
    assert verify_block_decomposition(M, dec).ok


def test_eliminate_witnesses_carry_their_degree():
    # the sweep edits entries in place; when matrices cached a degree cap,
    # A kept the cap 0 of the identity it started from (its entries have
    # degree 1 on m61), and act_group on it raised KeyError
    A, B, R, _ = eliminate(fx.example61_matrix())
    assert [X.degree() for X in (A, B, R)] == [1, 3, 3]
    assert act_group(A, GroupElement(np.eye(4), np.eye(4), np.eye(2),
                                     volume_preserving=False)) == A


def test_eliminate_m61_reproduces_fixture_bytes():
    # A, B, D, the groups and the zero blocks, not only D: every solve in
    # the elimination is exact, so the shipped decomposition must come back
    # byte for byte in the layout it was written in
    text = (FIXTURES / "m61_decomp.json").read_text()
    M = polymatrix_from_json(json.loads(text)["matrix"])
    _, _, _, dec = eliminate(M)
    again = {"decomposition": dec.to_json(), "matrix": polymatrix_to_json(M)}
    assert json.dumps(again, indent=2, sort_keys=True) == text


def test_eliminate_example63_flow():
    M = fx.example63_matrix()
    A, B, R, dec = eliminate(M)
    # the flow reduction realizes R(s, z) = M(-z)
    d = 3
    for i in range(4):
        for j in range(8):
            expect = Poly(2 * d, {
                (0,) * d + a: (c if sum(a) % 2 == 0 else -c)
                for a, c in M.entries[i][j].terms.items()})
            assert R.entries[i][j] == expect
    assert verify_block_decomposition(M, dec).ok


def test_eliminate_refuses_nothing_but_flags_unclosed_flow():
    # exp-like closure cannot be constant-nilpotent; the greedy path still
    # returns a valid (possibly trivial) decomposition
    M = PolyMatrix([[Poly.constant(1, 1), Poly(1, {(3,): 1})]])
    A, B, R, dec = eliminate(M)
    assert verify_block_decomposition(M, dec).ok


# -- the sparse solve's screen ---------------------------------------------------------------


@pytest.fixture
def solves(monkeypatch):
    """The calls the sparse solve makes to lp.exact_solve, counted."""
    calls = []

    def counted(*args):
        calls.append(args)
        return exact_solve(*args)

    monkeypatch.setattr(bd, "exact_solve", counted)
    return calls


def test_screen_settles_an_orphan_target_without_elimination(solves):
    # nothing has the key "c", so the equation there reads 0 = 3
    assert bd._solve_linear_combo([{"a": 1}, {"a": 2, "b": 1}], {"a": 1, "c": 3}) is None
    assert solves == []


def test_screen_ignores_an_orphan_key_with_zero_target(solves):
    vectors = [{"a": 1, "b": 1}, {"b": 1, "c": 1}]
    assert bd._solve_linear_combo(vectors, {"a": 3, "b": 5, "c": 2, "e": 0}) == [3, 2]
    assert len(solves) == 1


def test_feasible_solve_keeps_its_solution(solves):
    # underdetermined: the free variable of the fourth vector is zero, the
    # solution the solve gave before the screen
    vectors = [{"a": 1, "b": 1}, {"b": 1, "c": 1}, {"a": 1, "c": 1},
               {"a": 2, "b": 1, "c": 1}, {"d": F(1, 2)}]
    x = bd._solve_linear_combo(vectors, {"a": 3, "b": 5, "c": 4, "d": 1})
    assert x == [2, 3, 1, 0, 2] and all(type(v) is F for v in x)
    assert len(solves) == 1


def test_eliminate_m61_eliminates_only_consistent_systems(solves):
    # 62 systems were eliminated before the screens; 50 of them had no solution
    M = polymatrix_from_json(json.loads((FIXTURES / "m61.json").read_text()))
    eliminate(M)
    assert len(solves) == 10
    assert all(exact_solve(*args) is not None for args in solves)


# -- vanishing degrees ------------------------------------------------------------------


def test_intro_product_degrees():
    M, dec = fx.intro_decomposition()
    R = reduced_matrix(M, dec)
    D, zero_blocks = vanishing_degrees(R, [2, 1], [3, 1, 1])
    assert D == [[0, 1, 1], [0, 2, 3]]
    assert not zero_blocks


def test_vanishing_degrees_taylor_line():
    M = PolyMatrix([[Poly.constant(1, 1), Poly(1, {(1,): 1}),
                     Poly(1, {(2,): F(1, 2)})]])
    _, _, R, _ = eliminate(M)
    D, _ = vanishing_degrees(R, [1], [1, 1, 1])
    assert D == [[0, 1, 2]]


def test_vanishing_degrees_constant_identity():
    eye = PolyMatrix([[Poly.constant(1, 1) if i == j else Poly.zero(1)
                       for j in range(2)] for i in range(2)])
    A, B, R, dec = eliminate(eye)
    D, zb = vanishing_degrees(R, [1, 1], [1, 1])
    assert D[0][0] == 0 and D[1][1] == 0
    assert (0, 1) in zb and (1, 0) in zb  # off-diagonal zeros are flagged


# -- verification ------------------------------------------------------------------------


def test_verify_intro_pass():
    M, dec = fx.intro_decomposition()
    rep = verify_block_decomposition(M, dec)
    assert rep.ok and rep.det_ok and rep.monotone_ok and not rep.violations


def test_verify_tampered_degree_fails():
    M, dec = fx.intro_decomposition()
    bad = BlockDecomposition(dec.row_groups, dec.col_groups,
                             [[0, 1, 1], [0, 3, 3]], dec.A, dec.B)
    rep = verify_block_decomposition(M, bad)
    assert not rep.ok
    # the order-2 term -z^2/2 of block (1, 1) is the witness
    assert any(v[0] == (1, 1) and sum(v[2]) == 2 for v in rep.violations)


def test_verify_false_zero_block_fails():
    # a declared zero block was once checked only below its sentinel degree,
    # so m61 with block (0, 0) declared zero passed, although tile_map zeroes
    # that block and the full tile map at t0 = 0 then differs in 2 entries
    obj = json.loads((FIXTURES / "m61_decomp.json").read_text())
    M = polymatrix_from_json(obj["matrix"])
    true = BlockDecomposition.from_json(obj["decomposition"])
    bad = BlockDecomposition.from_json(dict(obj["decomposition"], zero_blocks=[[0, 0]]))
    assert verify_block_decomposition(M, true).ok
    rep = verify_block_decomposition(M, bad)
    assert not rep.ok and rep.det_ok and rep.monotone_ok
    # one violation per nonzero entry of the block: its first term in grlex order
    R = reduced_matrix(M, true)
    assert rep.violations == [
        ((0, 0), (0, 0), min(R.entries[r][c].terms, key=grlex_key)[M.d:], (r, c))
        for r in range(2) for c in range(4) if R.entries[r][c].terms]
    assert len(rep.violations) == 2
    full, t0 = Tile((0, 1), (0, 2)), [F(0)] * M.d
    diff = [(x, y) for a, b in zip(tile_map(M, true, full, t0).entries,
                                   tile_map(M, bad, full, t0).entries)
            for x, y in zip(a, b) if x != y]
    assert len(diff) == 2


def test_verify_scaled_A_fails_determinant():
    M, dec = fx.intro_decomposition()
    A2 = PolyMatrix([[e.scale(2) for e in row] for row in dec.A.entries])
    bad = BlockDecomposition(dec.row_groups, dec.col_groups, dec.D, A2, dec.B)
    rep = verify_block_decomposition(M, bad)
    assert not rep.det_ok and not rep.ok


def test_verify_prop7_sample_points():
    # all derivative pairings of total order < D_ij vanish at random diagonal
    # points: evaluate the reduced matrix's low z-orders at sampled s
    M, dec = fx.intro_decomposition()
    R = reduced_matrix(M, dec)
    rng = np.random.default_rng(2)
    ri = [0, 2, 3]
    ci = [0, 3, 4, 5]
    for _ in range(20):
        s0 = [F(int(rng.integers(-50, 50)), 7)]
        for i in range(2):
            for j in range(3):
                for r in range(ri[i], ri[i + 1]):
                    for c in range(ci[j], ci[j + 1]):
                        e = specialize_s(R.entries[r][c], s0)
                        for a, coeff in e.terms.items():
                            assert sum(a) >= dec.D[i][j] or coeff == 0


# -- tile maps ----------------------------------------------------------------------------


def test_tile_map_61_trailing():
    M = fx.example61_matrix()
    _, _, _, dec = eliminate(M)
    for t0 in ([F(0), F(0)], [F(2, 3), F(-1, 5)]):
        tm = tile_map(M, dec, Tile((0, 0), (2, 2)), t0)
        assert tm.entries[0][0] == Poly(2, {(2, 0): 1})
        assert tm.entries[1][0] == Poly(2, {(0, 2): 1})


def test_tile_map_61_leading_block():
    M = fx.example61_matrix()
    _, _, _, dec = eliminate(M)
    t0 = [F(1, 2), F(1, 3)]
    tm = tile_map(M, dec, Tile((0, 1), (0, 0)), t0)
    # lower-triangular constants with -3 t entries
    assert tm.entries[0][0] == Poly.constant(2, 1)
    assert tm.entries[2][0] == Poly.constant(2, F(-3, 2))
    assert tm.entries[3][1] == Poly.constant(2, -1)
    assert tm.entries[0][1].is_zero()


def test_tile_map_over_a_zero_block():
    # M = [[1, s, 0], [0, 0, s^2]] reduces to [[1, 0, z], [0, s^2, 0]]: row
    # groups [1, 1], column groups [2, 1], and block (1, 1) identically zero
    s = lambda k: Poly(1, {(k,): 1})
    M = PolyMatrix([[Poly.constant(1, 1), s(1), Poly.zero(1)],
                    [Poly.zero(1), Poly.zero(1), s(2)]])
    _, _, _, dec = eliminate(M)
    assert (dec.row_groups, dec.col_groups, dec.zero_blocks) == ([1, 1], [2, 1], {(1, 1)})
    one, o = Poly.constant(1, 1), Poly.zero(1)
    assert tile_map(M, dec, Tile((0, 1), (0, 1)), [F(2)]) == PolyMatrix(
        [[one, o, s(1)], [o, Poly.constant(1, 4), o]])
    assert tile_map(M, dec, Tile((1, 1), (1, 1)), [F(2)]) == PolyMatrix([[o]])
    # a true zero block has no term to violate it
    assert verify_block_decomposition(M, dec).ok


def test_tile_map_63_full_tile_matches_display():
    P = fx.example63_P()
    d = 3
    z1 = Poly(d, {(1, 0, 0): 1})
    z2 = Poly(d, {(0, 1, 0): 1})
    z3 = Poly(d, {(0, 0, 1): 1})
    one = Poly.constant(d, 1)
    o = Poly.zero(d)
    half = F(1, 2)
    expect = PolyMatrix([
        [one, o, o, o, o, z2.scale(-1), z3.scale(-1), z1.scale(-1)],
        [o, one, o, o, z2.scale(-1), z1.scale(-1), o, Poly(d, {(1, 1, 0): 1})],
        [o, o, one, o, z1.scale(-1), z3.scale(-1), z2.scale(-1),
         Poly(d, {(0, 1, 1): 1, (2, 0, 0): half})],
        [o, o, o, one, z3.scale(-1), o, z1.scale(-1), Poly(d, {(1, 0, 1): 1})],
    ])
    assert P == expect


@pytest.mark.parametrize("t0", [[F(0)], [F(0)] * 3])
def test_tile_map_rejects_a_point_of_the_wrong_dimension(t0):
    M = fx.example61_matrix()
    _, _, _, dec = eliminate(M)
    with pytest.raises(ValueError, match="wrong dimension"):
        tile_map(M, dec, Tile((0, 1), (0, 0)), t0)


def test_tile_map_commutes_with_in_group_remix():
    # remixing B's columns inside one group before extraction only remixes
    # the tile's column variables
    M = fx.example61_matrix()
    _, _, _, dec = eliminate(M)
    t0 = [F(1, 7), F(2, 7)]
    tile = Tile((0, 1), (1, 1))
    base = tile_map(M, dec, tile, t0)
    U = [[F(1), F(2), F(0), F(0)],
         [F(0), F(1), F(0), F(0)],
         [F(0), F(5), F(1), F(0)],
         [F(0), F(0), F(0), F(1)]]  # det 1, mixes group-1 columns
    B2rows = []
    for r in range(9):
        row = []
        for c in range(9):
            if 4 <= c < 8:
                acc = Poly.zero(2)
                for c2 in range(4, 8):
                    coef = U[c2 - 4][c - 4]
                    if coef:
                        acc = acc + dec.B.entries[r][c2].scale(coef)
                row.append(acc)
            else:
                row.append(dec.B.entries[r][c])
        B2rows.append(row)
    dec2 = BlockDecomposition(dec.row_groups, dec.col_groups, dec.D,
                              dec.A, PolyMatrix(B2rows), dec.zero_blocks)
    assert verify_block_decomposition(M, dec2).ok
    remixed = tile_map(M, dec2, tile, t0)
    # base acted on its y-slot by the same mix (act_group post-multiplies
    # by the transpose, so pass U transposed)
    expected = act_group(base, GroupElement(
        [[F(1) if i == j else F(0) for j in range(4)] for i in range(4)],
        [[U[j][i] for j in range(4)] for i in range(4)],
        [[F(1) if i == j else F(0) for j in range(2)] for i in range(2)],
        volume_preserving=False))
    assert remixed == expected


# -- useful tiles -------------------------------------------------------------------------


def test_useful_tiles_61():
    M = fx.example61_matrix()
    _, _, _, dec = eliminate(M)
    have = {(t.I, t.J) for t in useful_tiles(dec)}
    for tile in fx.example61_tiles():
        assert (tile.I, tile.J) in have
    assert ((0, 1), (0, 2)) in have  # the full tile always qualifies
    assert ((0, 0), (0, 0)) not in have  # D_10 = 0 does not dominate


def test_useful_tiles_single_group():
    M = PolyMatrix([[Poly.constant(1, 1)]])
    _, _, _, dec = eliminate(M)
    tiles = useful_tiles(dec)
    assert [(t.I, t.J) for t in tiles] == [((0, 0), (0, 0))]


def test_useful_tiles_intro():
    _, dec = fx.intro_decomposition()
    have = {(t.I, t.J) for t in useful_tiles(dec)}
    assert ((0, 1), (0, 0)) in have  # D_01 = 1 > 0 and D_11 = 2 > 0


def test_useful_tiles_matches_reference_on_random_grids():
    # degree grids up to 5 x 5 with zero blocks; the witnesses play no part
    rng = random.Random(1)
    for _ in range(3000):
        nI, nJ = rng.randint(1, 5), rng.randint(1, 5)
        D = [[rng.randint(0, 4) for _ in range(nJ)] for _ in range(nI)]
        zero = {(i, j) for i in range(nI) for j in range(nJ) if rng.random() < 0.2}
        dec = BlockDecomposition([1] * nI, [1] * nJ, D, None, None, zero)
        assert ([(t.I, t.J) for t in useful_tiles(dec)]
                == [(t.I, t.J) for t in tiles_reference.useful_tiles(dec)])


# -- Prop 9-style generic fixtures ---------------------------------------------------------


def _random_flow_fixture(rng, p, q, d, deg=3):
    """M(s) = M0 K(s) with commuting nilpotent generators: derivative-closed."""
    N = [[F(0)] * q for _ in range(q)]
    for i in range(q):
        for j in range(i + 1, q):
            N[i][j] = F(int(rng.integers(-3, 4)))
    from flow_reference import _mat_mul_frac

    def poly_in_N(coeffs):
        out = [[F(1 if i == j else 0) * coeffs[0] for j in range(q)]
               for i in range(q)]
        power = [[F(1 if i == j else 0) for j in range(q)] for i in range(q)]
        for c in coeffs[1:]:
            power = _mat_mul_frac(power, N)
            for i in range(q):
                for j in range(q):
                    out[i][j] += c * power[i][j]
        return out

    gens = [poly_in_N([F(0), F(int(rng.integers(-2, 3))),
                       F(int(rng.integers(-2, 3)))]) for _ in range(d)]
    M0 = [[F(int(rng.integers(-5, 6))) for _ in range(q)] for _ in range(p)]
    entries = [[Poly.constant(d, M0[i][j]) for j in range(q)]
               for i in range(p)]
    M = PolyMatrix(entries)
    # K(s) = prod exp(s_k G_k) applied on the right, truncated by nilpotency
    from flow_reference import _exp_flow

    Kneg = _exp_flow(gens, d, q)  # prod exp(-s_k G_k)
    # substitute s -> -s to get K(s)
    K = PolyMatrix([[Poly(d, {a: (c if sum(a) % 2 == 0 else -c)
                              for a, c in e.terms.items()})
                     for e in row] for row in Kneg.entries])
    return pm_mul(M, K)


def test_generic_flow_fixtures_reduce_to_first_order():
    rng = np.random.default_rng(17)
    hits = 0
    for _ in range(6):
        p, q, d = 2, 4, 2
        M = _random_flow_fixture(rng, p, q, d)
        if not has_generic_rank_p(M):
            continue
        A, B, R, dec = eliminate(M)
        assert verify_block_decomposition(M, dec).ok
        if dec.col_groups == [p, q - p] and len(dec.row_groups) == 1:
            assert dec.D[0][0] == 0 and dec.D[0][1] >= 1
            hits += 1
    assert hits >= 4
