"""Oracle tests: the dense Monte-Carlo evaluator against the per-term one.

The monomial table, the Plücker wedge norm and whole estimates built on
them must agree with ``tests/mc_reference.py`` (the per-term rows and the
Gram-path norm) on the fixtures' row families, on seeded random polynomial
matrices and on the inputs of acceptance criteria 6 and 7.
"""

import json
import math
import os
import random
from fractions import Fraction as F

import numpy as np
import pytest

import mc_reference as ref
from semistab import fixtures as fx
from semistab import sublevel
from semistab.polycore import Poly, PolyMatrix, to_dense
from semistab.sublevel import estimate_integral, plucker_evaluator, sample_omega

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _random_matrix(rng):
    d, D = rng.randint(1, 3), rng.randint(0, 3)
    p = rng.randint(1, 4)
    q = rng.randint(p, 8)
    alphas = [a for a in np.ndindex(*(D + 1,) * d) if sum(a) <= D]
    exact = rng.random() < 0.5

    def coef():
        if exact:
            return F(rng.randint(-9, 9), rng.randint(1, 7))
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3)

    def entry():
        if rng.random() < 0.2:
            return Poly.zero(d)
        return Poly(d, {a: coef() for a in rng.sample(alphas, rng.randint(1, len(alphas)))})

    return PolyMatrix([[entry() for _ in range(q)] for _ in range(p)])


def _largest_terms(M, pts):
    """Per point and entry, the largest |c z^alpha| among the entry's terms."""
    out = np.zeros((len(pts), M.p, M.q))
    for i, row in enumerate(M.entries):
        for j, e in enumerate(row):
            for a, c in e.terms.items():
                term = abs(float(c)) * np.prod(np.abs(pts) ** np.array(a), axis=1)
                out[:, i, j] = np.maximum(out[:, i, j], term)
    return out


@pytest.mark.parametrize("name,M,half_width", [
    ("example61", fx.example61_matrix(), 50.0),
    ("line", fx.line_family(), 1000.0),
    ("zero", PolyMatrix([[Poly.zero(1), Poly.zero(1)]]), 1.0),
] + [(f"random-{k}", _random_matrix(random.Random(k)), 2.0) for k in range(40)])
def test_evaluator_matches_per_term_sum(name, M, half_width):
    # rows from the monomial table times the coefficient array, one GEMM
    rng = np.random.default_rng(len(name))
    basis, T = to_dense(M)
    coef = T.reshape(M.p * M.q, -1).T
    for scale in (1.0, half_width):
        pts = rng.uniform(-scale, scale, size=(257, M.d))
        got = (basis.monomials(pts).T @ coef).reshape(-1, M.p, M.q)
        want = ref.matrix_evaluator(M)(pts)
        assert got.shape == want.shape == (257, M.p, M.q)
        assert np.all(np.abs(got - want) <= 1e-13 * _largest_terms(M, pts))


def test_wedge_norm_matches_einsum_gram():
    # det(G G^T) loses about cond(G)^2 ulps, so the Plücker norm and the
    # Gram path agree to 1e-10 only where rows and basis are well conditioned
    rng = np.random.default_rng(21)
    for p in range(1, 5):
        for q in range(p, 9):
            omega = sample_omega(1000 * p + q, 1.0, q)
            rows = rng.normal(size=(400, p, q))
            sv = np.linalg.svd(rows, compute_uv=False)
            rows = rows[sv[:, 0] <= 10 * sv[:, -1]]
            assert len(rows) >= 100
            got = np.array([plucker_evaluator(_constant(G), omega)(np.zeros((1, 1)))[0]
                            for G in rows])
            want = ref.wedge_norm_batch(rows, omega)
            assert np.all(np.abs(got - want) <= 1e-10 * want)


def _constant(rows):
    return PolyMatrix([[Poly.constant(1, float(x)) for x in row] for row in rows])


def _estimate_pair(monkeypatch, M, *args, **kwargs):
    new = estimate_integral(M, *args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(sublevel, "plucker_evaluator", ref.gram_evaluator)
        old = estimate_integral(M, *args, **kwargs)
    return new, old


def test_estimates_match_reference_criterion_7_shape(monkeypatch):
    with open(os.path.join(FIXDIR, "sublevel61_cap.json")) as fh:
        cap = json.load(fh)
    M = fx.example61_matrix()
    tau = cap["tau"]["num"] / cap["tau"]["den"]
    box = [tuple(b) for b in cap["box"]]
    for k in range(20):
        seed = 555_000 + k  # disjoint from the cap's and criterion 7's seeds
        omega = sample_omega(seed, cap["scale_max"], 9)
        new, old = _estimate_pair(monkeypatch, M, cap["weight_constant"], tau,
                                  box, omega, seed=seed, n_samples=cap["n_samples"])
        assert new.samples == old.samples
        assert new.value == pytest.approx(old.value, rel=1e-6)


def test_estimates_match_reference_line_oracle(monkeypatch):
    for c in (0.1, 1.0, 10.0):
        new, old = _estimate_pair(monkeypatch, fx.line_family(), 1.0, 2,
                                  [(-1000.0, 1000.0)], fx.anisotropic_omega(c),
                                  seed=123, n_samples=100_000, stratified=True,
                                  budget_factor=64)
        assert new.samples == old.samples
        assert new.value == pytest.approx(old.value, rel=1e-6)
        assert abs(new.value - math.pi) <= 0.10 * math.pi


def _row_sets(M):
    """The column subsets of M's nonzero maximal minors, in the minor table's order."""
    key = (M.d, tuple(tuple(tuple(sorted(e.terms.items())) for e in row) for row in M.entries))
    return sublevel._minor_table(key)[1]


@pytest.mark.parametrize("q,rowsets,scale_maxes", [
    # the line family's two row sets, in the order of its minors and reversed
    (2, ((0,), (1,)), (0.0, 8.0)),
    (2, ((1,), (0,)), (0.0, 8.0)),
    (9, _row_sets(fx.example61_matrix()), (0.0, 2.0, 8.0)),
    (5, ((0, 1, 2, 3, 4),), (0.0, 8.0)),
    # no two row sets share a suffix, so no level reuses a minor
    (6, ((2, 3, 5), (0, 1, 4), (1, 2, 3)), (0.0, 8.0)),
], ids=["line", "line-reversed", "m61", "p=q", "no-shared-suffix"])
def test_laplace_rows_match_det_of_each_block(q, rowsets, scale_maxes):
    plan = sublevel._laplace_plan(q, rowsets)
    nonzero = np.array(rowsets)
    for scale_max in scale_maxes:
        for k in range(20):
            cols = sample_omega(880_000 + k, scale_max, q).columns
            got = sublevel._compound(cols, plan)
            want = ref.det_compound(q, nonzero.shape[1], cols, nonzero)
            assert got.shape == want.shape
            # Hadamard: each minor is at most the product of its rows' norms
            bound = np.prod(np.linalg.norm(cols, axis=1)[nonzero], axis=1)
            assert np.all(np.abs(got - want) <= 1e-15 * bound[:, None])
