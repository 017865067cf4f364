from math import comb

import pytest

import hypersym.families
from hypersym import (
    DEFAULT_EDGE_BUDGET,
    BudgetExceededError,
    InternalConsistencyError,
    NikiforovParams,
    ParameterError,
    complete,
    cycle,
    is_connected,
    nikiforov,
    nikiforov_coloring,
    path,
    single_edge,
    stock,
    verify_coloring,
)

from helpers import nikiforov_edge_count


def classify(edge, params):
    k = params.k
    a, b = params.size_a, params.size_b
    in_a = sum(1 for v in edge if v <= a)
    in_b = sum(1 for v in edge if a < v <= a + b)
    in_c = sum(1 for v in edge if v > a + b)
    patterns = {
        (2 * k, 0, 2 * k): 1,
        (0, 2 * k, 2 * k): 2,
        (k, 3 * k, 0): 3,
        (3 * k, k, 0): 4,
    }
    return patterns.get((in_a, in_b, in_c))


def test_edge_count_k1():
    params = NikiforovParams(1, 6, 6, 4)
    assert nikiforov_edge_count(params) == 90 + 90 + 120 + 120 == 420
    g = nikiforov(params)
    assert g.vertex_count == 16
    assert g.edge_count == 420
    assert g.uniformity == 4


def test_edge_count_matches_formula_off_minimum():
    params = NikiforovParams(1, 7, 6, 5)
    expected = (
        comb(7, 2) * comb(5, 2)
        + comb(6, 2) * comb(5, 2)
        + comb(7, 1) * comb(6, 3)
        + comb(7, 3) * comb(6, 1)
    )
    assert nikiforov_edge_count(params) == expected
    assert nikiforov(params).edge_count == expected


def test_parameter_validation():
    with pytest.raises(ParameterError):
        NikiforovParams(1, 6, 6, 3)
    with pytest.raises(ParameterError):
        NikiforovParams(1, 5, 6, 4)
    with pytest.raises(ParameterError, match=r"^\|B\| must be >= 6, got 5$"):
        NikiforovParams(1, 6, 5, 4)
    with pytest.raises(ParameterError):
        NikiforovParams(0, 6, 6, 4)


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        nikiforov(NikiforovParams(1, 6, 6, 4), budget=419)
    with pytest.raises(BudgetExceededError):
        nikiforov(NikiforovParams(1, 6, 6, 4), budget=0)
    with pytest.raises(ParameterError, match=r"^budget must be >= 0, got -5$"):
        nikiforov(NikiforovParams(1, 6, 6, 4), budget=-5)
    # about 5,960 digits: refused from a capped count, never the exact one
    with pytest.raises(BudgetExceededError, match="more than"):
        nikiforov(NikiforovParams(2000, 12000, 12000, 8000))


def test_every_edge_matches_exactly_one_pattern():
    params = NikiforovParams(1, 6, 6, 4)
    g = nikiforov(params)
    for edge in g.edges:
        assert classify(edge, params) is not None
        in_c = sum(1 for v in edge if v > 12)
        assert in_c in (0, 2)


def test_family_is_connected():
    assert is_connected(nikiforov(NikiforovParams(1, 6, 6, 4)))
    assert is_connected(nikiforov(NikiforovParams(1, 7, 6, 4)))


def test_coloring_values_and_validity():
    params = NikiforovParams(1, 6, 6, 4)
    col = nikiforov_coloring(params)
    assert col.modulus == 4
    assert col.values == (1,) * 6 + (3,) * 6 + (0,) * 4
    g = nikiforov(params)
    assert verify_coloring(g, col, 2)
    # explicit mixed-class arithmetic: 1 + 3*3 = 10 = 2 mod 4
    assert (1 + 3 * 3) % 4 == 2


def test_stock_cycle():
    c4 = cycle(4)
    assert c4.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert stock("cycle", 4) == c4
    with pytest.raises(ParameterError):
        cycle(2)


def test_stock_path():
    p3 = path(3)
    assert p3.edges == ((1, 2), (2, 3))
    with pytest.raises(ParameterError):
        path(1)


def test_stock_complete():
    k4 = complete(4)
    assert k4.edge_count == 6
    assert stock("complete", 4) == k4


def test_stock_single_edge():
    e6 = single_edge(6)
    assert e6.uniformity == 6
    assert e6.edges == ((1, 2, 3, 4, 5, 6),)
    assert stock("single_edge", 6) == e6


def test_stock_unknown_kind():
    with pytest.raises(ParameterError):
        stock("torus", 4)


def test_stock_over_the_edge_budget_builds_nothing(monkeypatch):
    # the closed-form count is checked first, so these return at once
    for kind, size in (
        ("cycle", DEFAULT_EDGE_BUDGET + 1),
        ("path", DEFAULT_EDGE_BUDGET + 2),
        ("complete", 1415),  # 1415 * 1414 / 2 = 1,000,405 edges
        ("single_edge", DEFAULT_EDGE_BUDGET + 1),
    ):
        with pytest.raises(BudgetExceededError):
            stock(kind, size)
    # each closed form at the boundary: a budget of 6 admits C_6, P_7, K_4
    # and the 6-vertex single edge, and refuses one more vertex of each
    monkeypatch.setattr("hypersym.families.DEFAULT_EDGE_BUDGET", 6)
    for kind, size in (("cycle", 6), ("path", 7), ("complete", 4), ("single_edge", 6)):
        assert stock(kind, size).vertex_count == size
        with pytest.raises(BudgetExceededError):
            stock(kind, size + 1)


def test_family_count_self_check_raises(monkeypatch):
    # the edges are built without validation: the count check is their guard
    count = hypersym.families._edge_count
    monkeypatch.setattr(
        hypersym.families, "_edge_count", lambda params, cap: count(params, cap) + 1
    )
    with pytest.raises(
        InternalConsistencyError, match=r"^family has 420 edges, formula gives 421$"
    ):
        nikiforov(NikiforovParams(1, 6, 6, 4))
