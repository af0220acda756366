"""Oracle tests: the balanced moment families from one builder, and their
verifier reading P in the (s, z) variables only, against the two builders
and the verifier they replaced (``tests/family_reference.py``).  An empty
set is a ValueError for both families.

Seven families must come out identical in every part of the 6-tuple, term
order included; 200 seeded perturbations of P must give the same
``RadonVerifyReport`` JSON; and a P in the z variables alone, which the old
verifier read as all-z, is now a ValueError.
"""

import json
import random
from fractions import Fraction as F

import pytest

import family_reference as ref
from semistab import radon
from semistab.polycore import Poly, PolyMatrix

# the five families the benchmark verifies, then two more shapes
FAMILIES = [
    ("moment_family_type1", ([(1, 0), (0, 1)], 1)),
    ("moment_family_type1", ([(1,), (2,)], 2)),
    ("moment_family_type1", ([(1,), (2,), (3,)], 1)),
    ("moment_family_type2", ([(2,)],)),
    ("moment_family_type2", ([(2, 0), (0, 2), (1, 1), (2, 1), (1, 2)],)),
    ("moment_family_type1", ([(1, 0), (0, 1)], 2)),
    ("moment_family_type2", ([(2,), (3,)],)),
]
PERTURBATIONS = 200


def layout(X: PolyMatrix):
    """Every entry's dimension, exactness and terms in dictionary order."""
    return (X.p, X.q, X.d, X.degree(),
            [[(e.dim, e.exact, [(a, type(c), c) for a, c in e.terms.items()])
              for e in row] for row in X.entries])


@pytest.mark.parametrize("builder,args", FAMILIES,
                         ids=[f"{b[-5:]}-{args}" for b, args in FAMILIES])
def test_family_is_identical_to_the_reference(builder, args):
    got, want = getattr(radon, builder)(*args), getattr(ref, builder)(*args)
    assert len(got) == len(want) == 6
    for X, Y in zip(got[:5], want[:5]):
        assert layout(X) == layout(Y)
    assert type(got[5]) is type(want[5]) and got[5] == want[5]


def perturbed(rng, P: PolyMatrix) -> PolyMatrix:
    """P with one to three entries changed: one or two terms added, a
    coefficient scaled, a term dropped or the entry zeroed."""
    entries = [list(row) for row in P.entries]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(P.p), rng.randrange(P.q)
        terms = dict(entries[i][j].terms)
        kind = rng.choice(("add", "scale", "drop", "zero"))
        if kind == "add" or not terms:
            for _ in range(rng.randint(1, 2)):
                a = tuple(rng.randint(0, 2) for _ in range(P.d))
                terms[a] = terms.get(a, 0) + F(rng.choice((-3, -1, 1, 2)),
                                               rng.randint(1, 4))
        elif kind == "scale":
            a = rng.choice(list(terms))
            terms[a] *= F(rng.choice((-1, 2, 3)), rng.randint(1, 3))
        elif kind == "drop":
            del terms[rng.choice(list(terms))]
        else:
            terms = {}
        entries[i][j] = Poly(P.d, terms)
    return PolyMatrix(entries)


def test_perturbed_reports_match_the_reference():
    rng = random.Random(3)
    built = [getattr(radon, builder)(*args) for builder, args in FAMILIES]
    failing = 0
    for _ in range(PERTURBATIONS):
        M, A, B, P, _, _ = rng.choice(built)
        Q = perturbed(rng, P)
        got = radon.verify_radon_decomposition(M, A, B, Q).to_json()
        want = ref.verify_radon_decomposition(M, A, B, Q).to_json()
        assert json.dumps(got) == json.dumps(want)
        failing += not got["ok"]
    # the perturbations do reach the violation path
    assert failing > PERTURBATIONS // 2


def test_z_only_p_is_a_value_error():
    M, A, B, P, right, _ = radon.moment_family_type1([(1, 0), (0, 1)], 1)
    z_only = PolyMatrix([[Poly.zero(M.d)] * (M.q - right.q) + row
                         for row in right.entries])
    assert ref.verify_radon_decomposition(M, A, B, z_only) is not None
    with pytest.raises(ValueError, match=r"\(s, z\) variables"):
        radon.verify_radon_decomposition(M, A, B, z_only)


@pytest.mark.parametrize("builder,args", [("moment_family_type1", ([], 1)),
                                          ("moment_family_type2", ([],))])
def test_empty_set_is_a_value_error(builder, args):
    # type 2 once raised StopIteration reading the dimension
    with pytest.raises(ValueError, match="empty set"):
        getattr(radon, builder)(*args)
