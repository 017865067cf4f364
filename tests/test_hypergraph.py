import random

import pytest

import hypersym.hypergraph
from hypersym import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeSizeError,
    InternalConsistencyError,
    ParameterError,
    RepeatedVertexError,
    VertexRangeError,
    build_hypergraph,
    generalized_power,
    incidence_matrix,
    is_connected,
)

from helpers import closure_connected, random_connected_hypergraph, random_hypergraph


def test_build_triangle():
    g = build_hypergraph(2, 3, [[1, 2], [2, 3], [1, 3]])
    assert g.edge_count == 3
    assert g.edges == ((1, 2), (1, 3), (2, 3))


def test_build_single_4_edge():
    g = build_hypergraph(4, 4, [[1, 2, 3, 4]])
    assert g.edges == ((1, 2, 3, 4),)


def test_build_canonicalizes_order():
    g = build_hypergraph(2, 3, [[3, 2], [2, 1]])
    assert g.edges == ((1, 2), (2, 3))


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_hypergraph(2, 3, [[1, 2], [2, 1]])


def test_edge_size_rejected():
    with pytest.raises(EdgeSizeError):
        build_hypergraph(2, 3, [[1, 2, 3]])


def test_repeated_vertex_rejected():
    with pytest.raises(RepeatedVertexError):
        build_hypergraph(3, 4, [[1, 2, 2]])


def test_vertex_out_of_range_rejected():
    with pytest.raises(VertexRangeError):
        build_hypergraph(2, 3, [[1, 4]])
    with pytest.raises(VertexRangeError):
        build_hypergraph(2, 3, [[0, 2]])


def test_bad_parameters_rejected():
    with pytest.raises(ParameterError):
        build_hypergraph(1, 3, [])
    with pytest.raises(ParameterError):
        build_hypergraph(3, 2, [])


def test_connectivity_examples():
    triangle = build_hypergraph(2, 3, [[1, 2], [2, 3], [1, 3]])
    assert is_connected(triangle)
    split = build_hypergraph(2, 4, [[1, 2], [3, 4]])
    assert not is_connected(split)
    single = build_hypergraph(5, 5, [[1, 2, 3, 4, 5]])
    assert is_connected(single)


def test_isolated_vertex_disconnects():
    g = build_hypergraph(2, 3, [[1, 2]])
    assert not is_connected(g)


def test_connectivity_matches_transitive_closure():
    rng = random.Random(101)
    for _ in range(200):
        g = random_hypergraph(rng, rng.choice([2, 3, 4]), n_max=8)
        assert is_connected(g) == closure_connected(g)
    # larger graphs: union-find merges across many edges and stops once
    # n - 1 merges are done
    rng = random.Random(104)
    for _ in range(60):
        t = rng.choice([2, 3, 4, 5])
        g = random_connected_hypergraph(rng, t, n_max=14)
        assert is_connected(g) and closure_connected(g)
        h = random_hypergraph(rng, t, n_max=14)
        assert is_connected(h) == closure_connected(h)


def _power_refused(g) -> bool:
    """True iff `generalized_power` refuses `g` as having a vertex in no edge."""
    try:
        generalized_power(g, 2 * g.uniformity, 2)
    except DisconnectedError as err:
        assert str(err) == "power requires every vertex to lie in an edge"
        return True
    return False


def test_isolated_vertex_matches_edge_union():
    # the power refuses a base exactly when its edges miss a vertex
    rng = random.Random(103)
    for _ in range(200):
        g = random_hypergraph(rng, rng.choice([2, 3, 4]), n_max=8)
        covered = {v for edge in g.edges for v in edge}
        assert _power_refused(g) == (covered != set(range(1, g.vertex_count + 1)))
    assert _power_refused(build_hypergraph(2, 2, []))
    # n > k*t answers before any per-vertex set is built
    assert _power_refused(build_hypergraph(2, 10**12, [[1, 2]]))
    assert not _power_refused(build_hypergraph(2, 4, [[1, 2], [3, 4]]))


def test_incidence_triangle():
    g = build_hypergraph(2, 3, [[1, 2], [2, 3], [1, 3]])
    inc = incidence_matrix(g)
    assert inc == ((1, 1, 0), (1, 0, 1), (0, 1, 1))


def test_incidence_single_edge():
    g = build_hypergraph(4, 4, [[1, 2, 3, 4]])
    assert incidence_matrix(g) == ((1, 1, 1, 1),)


def test_incidence_path():
    g = build_hypergraph(2, 3, [[1, 2], [2, 3]])
    assert incidence_matrix(g) == ((1, 1, 0), (0, 1, 1))


def test_incidence_row_sums_equal_uniformity():
    rng = random.Random(102)
    for _ in range(100):
        g = random_hypergraph(rng, rng.choice([2, 3, 4]), n_max=8)
        inc = incidence_matrix(g)
        assert len(inc) == g.edge_count
        for row in inc:
            assert len(row) == g.vertex_count
            assert sum(row) == g.uniformity
            assert set(row) <= {0, 1}


def test_rebuild_is_identity():
    rng = random.Random(103)
    for _ in range(50):
        g = random_hypergraph(rng, rng.choice([2, 3]), n_max=7)
        again = build_hypergraph(g.uniformity, g.vertex_count, g.edges)
        assert again == g


def test_a_whole_list_rejection_the_per_edge_rules_accept_raises(monkeypatch):
    monkeypatch.setattr(hypersym.hypergraph, "_increasing", lambda items: False)
    with pytest.raises(
        InternalConsistencyError,
        match=r"^whole-list edge checks rejected edges the per-edge rules accept$",
    ):
        build_hypergraph(2, 3, [[1, 2], [2, 3]])
