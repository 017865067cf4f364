import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersym.symmetry
from hypersym import (
    Coloring,
    DimensionMismatchError,
    DisconnectedError,
    InternalConsistencyError,
    ModulusMismatchError,
    NikiforovParams,
    ParameterError,
    build_hypergraph,
    cycle,
    cyclic_index,
    divisors,
    is_connected,
    is_l_symmetric,
    nikiforov,
    single_edge,
    verify_coloring,
)
from hypersym.modular import _SpanBasis
from hypersym.symmetry import _index_generator, _witness

from helpers import (
    enumeration_symmetric,
    is_bipartite_bfs,
    per_divisor_report,
    random_connected_bipartite,
    random_connected_hypergraph,
)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(9) == [1, 3, 9]


def test_verify_coloring_square_cycle():
    c4 = cycle(4)
    assert verify_coloring(c4, Coloring(2, (1, 0, 1, 0)), 2)
    assert not verify_coloring(c4, Coloring(2, (1, 1, 1, 1)), 2)


def test_verify_coloring_errors():
    c4 = cycle(4)
    with pytest.raises(ModulusMismatchError):
        verify_coloring(c4, Coloring(3, (1, 0, 1, 0)), 1)
    with pytest.raises(DimensionMismatchError):
        verify_coloring(c4, Coloring(2, (1, 0, 1)), 2)
    with pytest.raises(ParameterError):
        verify_coloring(c4, Coloring(2, (1, 0, 1, 0)), 3)


def test_witness_square_cycle():
    witness = is_l_symmetric(cycle(4), 2)
    assert witness is not None
    assert verify_coloring(cycle(4), witness, 2)


def test_triangle_has_no_order2_witness():
    assert enumeration_symmetric(cycle(3), 2) is False
    assert is_l_symmetric(cycle(3), 2) is None


def test_disconnected_refused():
    split = build_hypergraph(2, 4, [[1, 2], [3, 4]])
    with pytest.raises(DisconnectedError):
        is_l_symmetric(split, 2)
    with pytest.raises(DisconnectedError):
        cyclic_index(split)


def test_non_divisor_refused():
    with pytest.raises(ParameterError):
        is_l_symmetric(cycle(4), 3)


def test_cyclic_index_single_edge():
    for m in (2, 3, 4, 6):
        report = cyclic_index(single_edge(m))
        assert report.cyclic_index == m
        assert set(report.divisor_evidence) == set(divisors(m))
        assert all(w is not None for w in report.divisor_evidence.values())


def test_cyclic_index_small_cycles():
    assert cyclic_index(cycle(3)).cyclic_index == 1
    assert cyclic_index(cycle(4)).cyclic_index == 2
    assert cyclic_index(cycle(5)).cyclic_index == 1
    assert cyclic_index(cycle(6)).cyclic_index == 2


def test_cyclic_index_matches_enumeration_on_small_inputs():
    rng = random.Random(31)
    for _ in range(40):
        g = random_connected_hypergraph(rng, rng.choice([2, 3]), n_max=6)
        report = cyclic_index(g)
        for ell in divisors(g.uniformity):
            assert (report.divisor_evidence[ell] is not None) == (
                enumeration_symmetric(g, ell)
            )


def test_report_witnesses_verify_and_close_under_divisors():
    rng = random.Random(32)
    for _ in range(60):
        g = random_connected_hypergraph(rng, rng.choice([2, 3, 4]), n_max=8)
        report = cyclic_index(g)
        solvable = set()
        for ell, witness in report.divisor_evidence.items():
            if witness is not None:
                solvable.add(ell)
                assert verify_coloring(g, witness, ell)
        assert report.cyclic_index == max(solvable)
        for ell in solvable:
            assert all(d in solvable for d in divisors(ell))


def test_cyclic_index_divides_uniformity():
    rng = random.Random(33)
    for _ in range(200):
        g = random_connected_hypergraph(rng, rng.choice([2, 3, 4]), n_max=10)
        report = cyclic_index(g)
        assert g.uniformity % report.cyclic_index == 0


def test_bipartite_detection_agrees_with_bfs():
    rng = random.Random(34)
    for _ in range(60):
        g = random_connected_bipartite(rng, n_max=8)
        assert is_bipartite_bfs(g)
        assert cyclic_index(g).cyclic_index == 2
    for n in (3, 5, 7, 9):
        g = cycle(n)
        assert not is_bipartite_bfs(g)
        assert cyclic_index(g).cyclic_index == 1


def test_nikiforov_order2_witness_matches_published_coloring():
    params = NikiforovParams(1, 6, 6, 4)
    g = nikiforov(params)
    witness = is_l_symmetric(g, 2)
    assert witness is not None
    assert verify_coloring(g, witness, 2)
    # the known classes-constant coloring is also accepted
    stated = Coloring(4, [1] * 6 + [3] * 6 + [0] * 4)
    assert verify_coloring(g, stated, 2)


def test_nikiforov_cyclic_index_is_two():
    report = cyclic_index(nikiforov(NikiforovParams(1, 6, 6, 4)))
    assert report.cyclic_index == 2
    assert report.divisor_evidence[4] is None


@settings(max_examples=100, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    t=st.integers(2, 6),
    factor=st.sampled_from([1, 2, 3]),
)
def test_generator_walk_matches_per_divisor_oracle(rng, t, factor):
    graph = random_connected_hypergraph(rng, t, n_max=t + 4)
    q = factor * t
    oracle = per_divisor_report(graph, q)
    basis = _SpanBasis(q, graph.vertex_count, graph.edges)
    a, _ = basis.express([1] * graph.edge_count)
    assert gcd(a, q) == q // oracle.cyclic_index
    if q == t:
        assert cyclic_index(graph) == oracle
        for ell, witness in oracle.divisor_evidence.items():
            assert is_l_symmetric(graph, ell) == witness


def test_all_ones_walk_self_check_raises(monkeypatch):
    monkeypatch.setattr(hypersym.symmetry, "_edge_sums_hit", lambda *args: False)
    with pytest.raises(
        InternalConsistencyError, match=r"^all-ones walk over Z_2 fails edge-sum verification$"
    ):
        cyclic_index(cycle(4))


def test_witness_refuses_an_order_outside_the_generators_ideal():
    # B x = 1 has no solution over Z_2 on an odd cycle
    c3 = cycle(3)
    g, basis = _index_generator(c3, 2)
    assert g == 2
    with pytest.raises(
        InternalConsistencyError,
        match=r"^order 2 over Z_2 is in the generator's ideal but has no solution$",
    ):
        _witness(c3.edges, basis, 2)


def test_witness_self_check_raises(monkeypatch):
    c4 = cycle(4)
    _, basis = _index_generator(c4, 2)
    monkeypatch.setattr(hypersym.symmetry, "_edge_sums_hit", lambda *args: False)
    with pytest.raises(
        InternalConsistencyError, match=r"^order 2 witness over Z_2 fails edge-sum verification$"
    ):
        _witness(c4.edges, basis, 2)


def _dense_connected(rng, t):
    """A connected t-uniform graph with more than 4n edges, so that the
    sampled walk starts from a proper subset of them."""
    n = {2: 10, 3: 7, 4: 7, 5: 8, 6: 9}[t] + rng.randint(0, 1)
    pool = list(itertools.combinations(range(1, n + 1), t))
    while True:
        graph = build_hypergraph(t, n, rng.sample(pool, rng.randint(4 * n + 1, len(pool))))
        if is_connected(graph):
            return graph


def _planted_connected(rng, t):
    """A connected t-uniform graph with more than 4n edges, each summing
    to t/l under a random x in Z_t^n for a random l > 1 dividing t, so
    that its cyclic index exceeds 1."""
    n = 20 if t == 2 else 12
    ell = rng.choice(divisors(t)[1:])
    while True:
        x = [rng.randrange(t) for _ in range(n + 1)]
        pool = [
            e for e in itertools.combinations(range(1, n + 1), t)
            if sum(x[v] for v in e) % t == t // ell
        ]
        if len(pool) > 4 * n:
            graph = build_hypergraph(t, n, rng.sample(pool, rng.randint(4 * n + 1, len(pool))))
            if is_connected(graph):
                return graph


@settings(max_examples=100, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    t=st.integers(2, 6),
    factor=st.sampled_from([1, 2, 3]),
    planted=st.booleans(),
)
def test_sampled_generator_matches_per_divisor_oracle(rng, t, factor, planted):
    graph = (_planted_connected if planted else _dense_connected)(rng, t)
    q = factor * t
    g, basis = _index_generator(graph, q)
    assert g == q // per_divisor_report(graph, q).cyclic_index
    assert basis is None
    if planted:
        # the witnesses come from the whole-incidence basis built apart
        # from the walk's
        report = per_divisor_report(graph, t)
        assert report.cyclic_index > 1
        assert cyclic_index(graph) == report
        for ell, witness in report.divisor_evidence.items():
            assert is_l_symmetric(graph, ell) == witness


def test_sampled_generator_grows_its_sample_on_the_family(monkeypatch):
    # with nikiforov's own labels the walk on the first 65-edge sample of
    # the (12,12,8) family fails the edge-sum pass over Z_8; 65 violated
    # edges join the sample, and the second walk passes
    graph = nikiforov(NikiforovParams(1, 12, 12, 8))
    built = []

    def counting(modulus, width, rows):
        built.append(len(rows))
        return _SpanBasis(modulus, width, rows)

    monkeypatch.setattr(hypersym.symmetry, "_SpanBasis", counting)
    g, basis = _index_generator(graph, 8)
    assert built == [65, 130]
    assert basis is None
    monkeypatch.undo()
    assert g == 8 // per_divisor_report(graph, 8).cyclic_index
