import itertools
import random

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
    generalized_power,
    is_connected,
    nikiforov,
    single_edge,
    verify_coloring,
)
from hypersym.modular import _eliminate
from hypersym.cli import main
from hypersym.fileio import write_hypergraph
from hypersym.symmetry import _index_generator

from helpers import (
    CountedEdges,
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
    witness = cyclic_index(cycle(4)).divisor_evidence[2]
    assert witness is not None
    assert verify_coloring(cycle(4), witness, 2)


def test_triangle_has_no_order2_witness():
    assert enumeration_symmetric(cycle(3), 2) is False
    assert cyclic_index(cycle(3)).divisor_evidence[2] is None


def test_disconnected_refused():
    split = build_hypergraph(2, 4, [[1, 2], [3, 4]])
    with pytest.raises(DisconnectedError):
        cyclic_index(split)


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
    witness = cyclic_index(g).divisor_evidence[2]
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
    g, _ = _eliminate(q, graph.vertex_count, graph.edges)
    assert g == q // oracle.cyclic_index
    if q == t:
        _assert_verdicts_match_oracle(graph)


def _assert_verdicts_match_oracle(graph):
    """`cyclic_index` decides every order as the per-divisor oracle does,
    and each witness verifies."""
    oracle = per_divisor_report(graph, graph.uniformity)
    report = cyclic_index(graph)
    assert report.cyclic_index == oracle.cyclic_index
    assert report.divisor_evidence.keys() == oracle.divisor_evidence.keys()
    for ell, witness in report.divisor_evidence.items():
        assert (witness is None) == (oracle.divisor_evidence[ell] is None)
        if witness is not None:
            assert verify_coloring(graph, witness, ell)


def test_walk_witness_may_differ_from_the_per_divisor_witness():
    # the l = 2 witness is 2 times the elimination's x, not the oracle's
    # own solution of B x = 2 * 1; both verify
    rows = "1458 1589 2357 2367 3489 3589 4678 5689".split()
    graph = build_hypergraph(4, 9, [[int(v) for v in row] for row in rows])
    _assert_verdicts_match_oracle(graph)
    assert cyclic_index(graph).divisor_evidence[2] == Coloring(4, (2, 0, 2, 2, 2, 2, 2, 0, 2))
    assert per_divisor_report(graph, 4).divisor_evidence[2] == Coloring(
        4, (0, 2, 0, 0, 0, 0, 0, 2, 0)
    )


def test_all_ones_walk_self_check_raises(monkeypatch):
    # every edge misses, and the sample already holds every edge of C4
    monkeypatch.setattr(hypersym.symmetry, "_misses", lambda rows, *args: iter(rows))
    with pytest.raises(
        InternalConsistencyError, match=r"^all-ones walk over Z_2 fails edge-sum verification$"
    ):
        cyclic_index(cycle(4))


def _faulty_elimination(proved):
    """An `_eliminate` stand-in that always returns `proved`."""
    return lambda modulus, width, rows: proved


def test_witness_self_check_raises(monkeypatch, tmp_path, capsys):
    # g = 1 with x = 0 claims B x = 1 on C4, but every edge sums to 0:
    # the proof pass refuses x before any witness is built
    monkeypatch.setattr(hypersym.symmetry, "_eliminate", _faulty_elimination((1, [0] * 5)))
    message = "all-ones walk over Z_2 fails edge-sum verification"
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        cyclic_index(cycle(4))
    target = tmp_path / "c4.hg"
    write_hypergraph(cycle(4), target)
    assert main(["analyze", str(target)]) == 7
    assert capsys.readouterr() == ("", f"error: {message}\n")


@settings(max_examples=300, deadline=None)
@given(data=st.data(), q=st.integers(2, 36))
def test_the_all_ones_walk_returns_its_generator(data, q):
    # g is a divisor of q, and every edge sums to it
    n = data.draw(st.integers(2, 7))
    t = data.draw(st.integers(2, n))
    pool = list(itertools.combinations(range(1, n + 1), t))
    edges = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    g, x = _eliminate(q, n, edges)
    assert q % g == 0
    assert all(sum(x[v] for v in e) % q == g % q for e in edges)


def _dense_connected(rng, t):
    """A connected t-uniform graph with more than 4n edges, so that the
    sampled elimination starts from a proper subset of them."""
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


def _assert_generator(graph, q, g, x):
    """g divides q, is q over the oracle's index and is every edge's sum
    under x."""
    assert q % g == 0
    assert g == q // per_divisor_report(graph, q).cyclic_index
    assert all(sum(x[v] for v in e) % q == g % q for e in graph.edges)


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
    g, x = _index_generator(graph, q)
    _assert_generator(graph, q, g, x)
    if planted:
        # the witnesses of the orders above 1 scale the sampled elimination's x
        assert per_divisor_report(graph, t).cyclic_index > 1
        _assert_verdicts_match_oracle(graph)


def test_sampled_generator_grows_its_sample_on_the_family(monkeypatch):
    # the elimination over Z_12 on the first 105-edge sample of the
    # 12-uniform s=3 power of the (6,6,4) family fails the edge-sum pass;
    # the first 90 edges that miss join the sample, and the second
    # elimination passes. Every witness scales its x, so the system of
    # all 420 edges is never eliminated
    graph, _ = generalized_power(nikiforov(NikiforovParams(1, 6, 6, 4)), 12, 3)
    built = []

    def counting(modulus, width, rows):
        built.append(len(rows))
        return _eliminate(modulus, width, rows)

    monkeypatch.setattr(hypersym.symmetry, "_eliminate", counting)
    report = cyclic_index(graph)
    assert built == [105, 195]
    monkeypatch.undo()
    assert report.cyclic_index == per_divisor_report(graph, 12).cyclic_index


_FAMILY12 = nikiforov(NikiforovParams(1, 12, 12, 8))
_POWER3 = generalized_power(nikiforov(NikiforovParams(1, 6, 6, 4)), 12, 3)[0]


@pytest.mark.parametrize("graph,q,rounds", [
    # with `nikiforov`'s own labels the 65-edge sample of the (12,12,8)
    # family proves its x over Z_4 and Z_8, but over Z_12 it misses
    pytest.param(_FAMILY12, 4, [65], id="4"),
    pytest.param(_FAMILY12, 8, [65], id="8"),
    pytest.param(_FAMILY12, 12, [65, 130], id="12"),
    # every modulus of the (6,6,4) s=3 power needs a second round
    pytest.param(_POWER3, 12, [105, 195], id="s3-12"),
    pytest.param(_POWER3, 24, [105, 195], id="s3-24"),
    pytest.param(_POWER3, 36, [105, 195], id="s3-36"),
])
def test_each_walk_round_reads_the_edges_once(monkeypatch, graph, q, rounds):
    # a failed round collects the edges that miss from the same pass that
    # finds them
    built = []

    def counting(modulus, width, rows):
        built.append(len(rows))
        return _eliminate(modulus, width, rows)

    monkeypatch.setattr(hypersym.symmetry, "_eliminate", counting)
    monkeypatch.setattr(CountedEdges, "reads", 0)
    g, x = _index_generator(graph._replace(edges=CountedEdges(graph.edges)), q)
    assert built == rounds
    assert CountedEdges.reads == len(built)
    _assert_generator(graph, q, g, x)
