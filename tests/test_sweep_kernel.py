"""Oracle tests: the one order-raising sweep of ``eliminate``, whose column
pass is its row pass on the transposes, against the separate column and row
sweeps it replaced (``tests/sweep_reference.py``).

Every elimination decision is exact, so A, B, R and the decomposition must
agree byte for byte in their JSON form: on every shipped fixture matrix, and
on a seeded corpus of exact incidence matrices of generic rank p with
p <= 3, q <= p + 3, d <= 2 and entries of degree <= 2.  The corpus mixes
sparse matrices, [I | N(s)] with N of powers of one variable (rows of equal order on
the columns of N give the row pass its work) and derivative frames of a
monomial curve (which have a flow), and adds a linear multiple of one row
to another in half of them.

Those matrices cannot tell which solution an underdetermined jet system
gets, so the corpus also holds denser draws (p in {2, 3}, q up to p + 3, a
unit leading diagonal and entries of up to three terms of degree <= 3) and
``JET_ORDER``, one such matrix found by a draw: with the jet solve's unknowns
in reverse order, ``eliminate`` gives it another B and R.
"""

import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import sweep_reference as ref
from semistab import blockdecomp as bd
from semistab import fixtures as fx
from semistab.polycore import (Poly, PolyMatrix, partial_derivative, polymatrix_from_json,
                               polymatrix_to_json)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_MATRICES = ["two_squares", "diag_linear_4", "two_cubes", "intro_U", "intro_V",
                    "example61_matrix", "example63_matrix", "line_family"]


def shipped():
    """(name, matrix) for every polynomial matrix under fixtures/ and every
    matrix the fixtures module builds."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        obj = json.loads(path.read_text())
        if "matrix" in obj:
            obj = obj["matrix"]
        if "entries" in obj:
            out.append((path.name, polymatrix_from_json(obj)))
    return out + [(f"fixtures.{name}", getattr(fx, name)()) for name in FIXTURE_MATRICES]


SHIPPED = shipped()


def random_incidence(rng):
    p, d = rng.randint(1, 3), rng.randint(1, 2)
    q = rng.randint(p, p + 3)
    # the monomials of degree <= 2, those of degree <= 1 first
    monos = sorted((a for a in itertools.product(range(3), repeat=d) if sum(a) <= 2), key=sum)
    coef = lambda: F(rng.choice([1, -1, 2, -2, F(1, 2)]))
    kind = rng.choice([0, 1, 1, 2])
    if kind == 0:
        rows = [[Poly(d, {rng.choice(monos): coef() for _ in range(rng.randint(0, 2))})
                 for _ in range(q)] for _ in range(p)]
    elif kind == 1:
        k = rng.randrange(d)
        power = lambda: tuple(rng.randint(1, 2) * (v == k) for v in range(d))
        rows = [[Poly.constant(d, int(i == j)) for j in range(p)]
                + [Poly(d, {power(): coef()} if rng.random() < 0.7 else {})
                   for _ in range(q - p)] for i in range(p)]
    else:
        # s-derivatives of the curve s -> (s^a) over q monomials a
        cols = rng.sample(monos, min(q, len(monos)))
        betas = [monos[0]] + [rng.choice(monos[:d + 1]) for _ in range(p - 1)]
        rows = [[partial_derivative(Poly(d, {a: 1}), b) for a in cols] for b in betas]
    if p > 1 and rng.random() < 0.5:
        i, k = rng.sample(range(p), 2)
        lin = Poly(d, {rng.choice(monos[:d + 1]): coef()})
        rows[i] = [Poly(d, {a: c for a, c in (e + lin * f).terms.items() if sum(a) <= 2})
                   for e, f in zip(rows[i], rows[k])]
    return PolyMatrix(rows)


def dense_incidence(rng):
    p, d = rng.randint(2, 3), rng.randint(1, 2)
    q = rng.randint(p + 1, p + 3)
    monos = [a for a in itertools.product(range(4), repeat=d) if sum(a) <= 3]
    coef = lambda: rng.choice([1, -1, 2, -2, 3, -3])
    return PolyMatrix([[Poly.constant(d, 1) if i == j else
                        Poly(d, {rng.choice(monos): coef() for _ in range(rng.randint(0, 3))})
                        for j in range(q)] for i in range(p)])


def _s(*terms):
    return Poly(1, {(k,): c for k, c in terms})


# [[1, s, 0, -s^2, 0], [2s^3 - 3s^2, 1, 2s - s^3, -3s^3 - 3s^2 - 3, -3s^3 - 3]]:
# D = [[0, 1]], row groups [2], column groups [3, 2]
JET_ORDER = PolyMatrix([
    [_s((0, 1)), _s((1, 1)), _s(), _s((2, -1)), _s()],
    [_s((3, 2), (2, -3)), _s((0, 1)), _s((1, 2), (3, -1)), _s((3, -3), (2, -3), (0, -3)),
     _s((3, -3), (0, -3))]])


def corpus(n=60, seed=20261020):
    """n sparse draws, then n // 2 dense draws, then ``JET_ORDER``."""
    rng = random.Random(seed)
    out = []
    for draw, count in ((random_incidence, n), (dense_incidence, n + n // 2)):
        while len(out) < count:
            M = draw(rng)
            if bd.has_generic_rank_p(M):
                out.append(M)
    return out + [JET_ORDER]


def as_json(result) -> str:
    A, B, R, decomp = result
    return json.dumps([*(polymatrix_to_json(X) for X in (A, B, R)), decomp.to_json()])


@pytest.mark.parametrize("name, M", SHIPPED, ids=[name for name, _ in SHIPPED])
def test_eliminate_matches_reference_on_fixtures(name, M):
    assert as_json(bd.eliminate(M)) == as_json(ref.eliminate(M))


def test_eliminate_matches_reference_on_random_corpus(monkeypatch):
    # count the matrices on which each pass of the sweep raises an order,
    # so the corpus is seen to exercise both
    raised, sweep = set(), bd._raise_rows

    def counted(R, W, groups, first, lift, d, degbound):
        rose = sweep(R, W, groups, first, lift, d, degbound)
        if rose:
            raised.add((id(M), lift))
        return rose

    monkeypatch.setattr(bd, "_raise_rows", counted)
    for M in corpus():
        assert as_json(bd.eliminate(M)) == as_json(ref.eliminate(M))
    passes = [lift for _, lift in raised]
    assert passes.count(bd.inflate_t) >= 15 and passes.count(bd.inflate_s) >= 5
