"""Oracle tests: the flow of ``eliminate`` as one routine, and the closure
and jet systems as one sparse solve, against the closure solve, the series
and the jet solve they replaced (``tests/flow_reference.py``).

``_flow(M)`` must give the reference's B(t) byte for byte, or None where the
reference finds no nilpotent generators, on every shipped matrix, on the
seeded corpus of the sweep oracle and on four cases made for the closure:
one without a constant closure, one whose closure is not nilpotent, one
whose derivatives must come from the columns of lower degree and one whose
derivatives need columns of the same degree.  ``_solve_jet_kill`` must
return the reference's coefficients on every jet solve ``eliminate`` makes
over the shipped matrices and the corpus.
"""

import json

import pytest

import flow_reference as ref
from semistab import blockdecomp as bd
from semistab.polycore import Poly, PolyMatrix, polymatrix_to_json
from test_sweep_kernel import SHIPPED, corpus

s = lambda e: Poly(1, {(e,): 1})
two = Poly.constant(1, 2)
# d/ds [s^2, s^2 + s] = [2s, 2s + 1] is no constant combination of the columns
NO_CLOSURE = PolyMatrix([[s(2), s(2) + s(1)]])
# the derivative 1 of each column is (s + 1 - (s - 1)) / 2, so G exists, but
# it is not nilpotent
NOT_NILPOTENT = PolyMatrix([[s(1) + s(0), s(1) + s(0), s(1) - s(0), s(1) - s(0)]])
# no column has a lower degree than another, so the derivative 1 of each is
# a combination of the other two, and G has G^3 = 0
SAME_DEGREE = PolyMatrix([[s(1), s(1) + s(0), s(1) + two]])
# the derivatives are the last column, and also combinations of the others
# of degree 1, which give another G
LOWER_FIRST = PolyMatrix([[s(1) + s(0), s(1) + two, s(1), s(0)]])
CORPUS = corpus()


def reference_flow(M: PolyMatrix):
    generators = ref._solve_constant_closure(M)
    return None if generators is None else ref._exp_flow(generators, M.d, M.q)


def as_json(B):
    return None if B is None else json.dumps(polymatrix_to_json(B))


@pytest.mark.parametrize("name, M", SHIPPED, ids=[name for name, _ in SHIPPED])
def test_flow_matches_reference_on_fixtures(name, M):
    assert as_json(bd._flow(M)) == as_json(reference_flow(M))


def test_flow_matches_reference_on_random_corpus():
    found = [as_json(bd._flow(M)) for M in CORPUS]
    assert found == [as_json(reference_flow(M)) for M in CORPUS]
    # both outcomes occur, so both branches are compared
    assert 0 < found.count(None) < len(found)


def test_flow_fails_without_a_nilpotent_closure():
    for M in (NO_CLOSURE, NOT_NILPOTENT):
        assert bd._flow(M) is None and reference_flow(M) is None


def test_flow_prefers_lower_degree_columns():
    # G is the last column's 1 under each of the others, and G^2 = 0
    B = bd._flow(LOWER_FIRST)
    assert B is not None and B.degree() == 1
    assert as_json(B) == as_json(reference_flow(LOWER_FIRST))


def test_flow_falls_back_to_same_degree_columns():
    B = bd._flow(SAME_DEGREE)
    assert B is not None and B.degree() == 2
    assert as_json(B) == as_json(reference_flow(SAME_DEGREE))


def test_jet_kill_matches_reference_on_every_solve(monkeypatch):
    calls, solve = [], bd._solve_jet_kill

    def recorded(target, pivot_jets, d, degbound):
        fs = solve(target, pivot_jets, d, degbound)
        calls.append(((target, pivot_jets, d, degbound), fs))
        return fs

    monkeypatch.setattr(bd, "_solve_jet_kill", recorded)
    for M in [M for _, M in SHIPPED] + CORPUS:
        bd.eliminate(M)
    for args, fs in calls:
        assert fs == ref._solve_jet_kill(*args)
    solved = sum(fs is not None for _, fs in calls)
    assert 0 < solved < len(calls)
