from fractions import Fraction as F

from semistab import fixtures as fx
from semistab.blockdecomp import BlockDecomposition, PolyMatrix, Tile, eliminate
from semistab.tileplan import solve_plan, tile_point


def _formal_decomp(row_groups, col_groups):
    D = [[0] * len(col_groups) for _ in row_groups]
    return BlockDecomposition(row_groups, col_groups, D,
                              PolyMatrix.identity(sum(row_groups), 1),
                              PolyMatrix.identity(sum(col_groups), 1))


def _dec61():
    _, _, _, dec = eliminate(fx.example61_matrix())
    return dec


def test_tile_point_leading():
    pt = tile_point(_dec61(), Tile((0, 1), (0, 0)), 0)
    assert pt.row_part == (F(1, 4), F(1, 4))
    assert pt.col_part == (F(1, 4), F(0), F(0))
    assert pt.sigma == 0


def test_tile_point_trailing():
    pt = tile_point(_dec61(), Tile((1, 1), (2, 2)), F(3, 2))
    assert pt.row_part == (F(0), F(1, 2))
    assert pt.col_part == (F(0), F(0), F(1))
    assert pt.sigma == F(3, 2)


def test_tile_point_full():
    dec = _dec61()
    pt = tile_point(dec, Tile((0, 1), (0, 2)), F(1, 3))
    assert pt.row_part == (F(1, 4), F(1, 4))
    assert pt.col_part == (F(1, 9), F(1, 9), F(1, 9))


def test_solve_plan_61():
    dec = _dec61()
    pts = [tile_point(dec, t, F(i, 2))
           for i, t in enumerate(fx.example61_tiles())]
    plan = solve_plan(pts, 4, 9, sigma=F(13, 36))
    assert plan is not None
    assert plan.theta == [F(4, 9), F(4, 9), F(1, 18), F(1, 18)]
    assert plan.sigma_total == F(13, 36)
    assert plan.tau == F(9, 13)


def test_solve_plan_lp_rows(monkeypatch):
    # theta (n) | sigma: row-part rows = 1/p, column-part rows = 1/q, the
    # sigma row with sigma moved left, sum theta = 1, then the pin row
    import semistab.tileplan as tp

    seen, solve = [], tp.solve_eq_lp

    def spy(A, b, *args, **kwargs):
        seen.append((A, b))
        return solve(A, b, *args, **kwargs)

    monkeypatch.setattr(tp, "solve_eq_lp", spy)
    dec = _dec61()
    pts = [tile_point(dec, t, F(i, 2))
           for i, t in enumerate(fx.example61_tiles())]
    solve_plan(pts, 4, 9)
    solve_plan(pts, 4, 9, sigma=F(13, 36))
    # the LPs are built in ints wherever no point coordinate or 1/p enters
    rows = ([[pt.row_part[r] for pt in pts] + [0] for r in range(2)]
            + [[pt.col_part[c] for pt in pts] + [0] for c in range(3)]
            + [[pt.sigma for pt in pts] + [-1], [1] * 4 + [0]])
    rhs = [F(1, 4)] * 2 + [F(1, 9)] * 3 + [0, 1]
    pinned = (rows + [[0] * 4 + [1]], rhs + [F(13, 36)])
    assert repr(seen) == repr([(rows, rhs), pinned])


def test_solve_plan_exact_reconstruction():
    dec = _dec61()
    pts = [tile_point(dec, t, F(i, 2))
           for i, t in enumerate(fx.example61_tiles())]
    plan = solve_plan(pts, 4, 9, sigma=F(13, 36))
    for c in range(2):
        assert sum(t * pt.row_part[c] for t, pt in zip(plan.theta, pts)) == F(1, 4)
    for c in range(3):
        assert sum(t * pt.col_part[c] for t, pt in zip(plan.theta, pts)) == F(1, 9)
    assert sum(t * pt.sigma for t, pt in zip(plan.theta, pts)) == F(13, 36)
    assert sum(plan.theta) == 1
    assert plan.tau * 4 * plan.sigma_total == 1


def test_solve_plan_model_pair():
    # (p, q, d) = (2, 3, 1): two-group column split (p, q - p)
    dec = _formal_decomp([2], [2, 1])
    pts = [tile_point(dec, Tile((0, 0), (0, 0)), 0),
           tile_point(dec, Tile((0, 0), (1, 1)), 1)]
    plan = solve_plan(pts, 2, 3)
    assert plan.theta == [F(2, 3), F(1, 3)]
    assert plan.sigma_total == F(1, 3)
    assert plan.tau == F(3, 2)  # = d q / ((q - p) p)


def test_solve_plan_infeasible_single_point():
    dec = _formal_decomp([1], [1, 1, 1])
    pts = [tile_point(dec, Tile((0, 0), (0, 0)), 0)]
    assert solve_plan(pts, 1, 3) is None


def test_feasible_sigma_range_63():
    # realize the published support family through the sparse-criterion
    # support points of the degenerate matrix: the attainable sigma interval
    # contains [3/16, 5/24]
    from semistab.gitnorm import feasible_sigma_interval
    from semistab.polycore import support_set

    lo, hi = feasible_sigma_interval(support_set(fx.example63_P()))
    assert lo <= F(3, 16) and hi >= F(5, 24)


def test_plan_serialization():
    dec = _dec61()
    pts = [tile_point(dec, t, F(i, 2))
           for i, t in enumerate(fx.example61_tiles())]
    plan = solve_plan(pts, 4, 9, sigma=F(13, 36))
    obj = plan.to_json()
    assert obj["tau"] == {"num": 9, "den": 13}
    assert len(obj["theta"]) == 4
