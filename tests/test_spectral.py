import random
import sys
import warnings
from collections import Counter
from decimal import Decimal
from functools import lru_cache

import numpy as np
import pytest

import hypersym.spectral
from hypersym import (
    Coloring,
    ConvergenceError,
    DisconnectedError,
    InternalConsistencyError,
    NikiforovParams,
    ParameterError,
    build_hypergraph,
    complete,
    cycle,
    cyclic_index,
    divisors,
    generalized_power,
    nikiforov,
    nikiforov_coloring,
    path,
    power_iteration_rho,
    single_edge,
    verify_coloring,
    verify_similarity,
)

from hypersym.spectral import _contract, _equitable_partition

from helpers import (
    adjacency_bruteforce,
    apply_adjacency,
    apply_adjacency_loop,
    lift_single_member,
    power_iteration_loop,
    random_connected_hypergraph,
    random_hypergraph,
    similarity_deviation_loop,
    two_cell_rho,
)


def _family_and_power():
    params = NikiforovParams(1, 6, 6, 4)
    base = nikiforov(params)
    power, layout = generalized_power(base, 2 * base.uniformity, 2)
    return params, base, power, layout


def _kernel_input(np_rng, n):
    """A float vector of length n with zeros and negatives."""
    floats = np_rng.uniform(-2.0, 2.0, n)
    floats[np_rng.random(n) < 0.3] = 0.0
    floats[0] = 0.0
    return floats


def _assert_kernel_matches_loop(graph, x):
    # every vertex its own cell: the per-edge loop, bit for bit
    assert np.array_equal(apply_adjacency(graph, x), apply_adjacency_loop(graph, x))


def test_apply_adjacency_examples():
    ones = np.ones(5)
    assert np.allclose(apply_adjacency(single_edge(5), ones), ones)
    assert np.allclose(apply_adjacency(cycle(4), np.ones(4)), 2 * np.ones(4))
    y = apply_adjacency(single_edge(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(y, [6.0, 3.0, 2.0])


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_apply_adjacency_matches_per_edge_loop(t):
    rng = random.Random(60 + t)
    np_rng = np.random.default_rng(60 + t)
    for _ in range(8):
        g = random_hypergraph(rng, t, n_max=t + 4)
        _assert_kernel_matches_loop(g, _kernel_input(np_rng, g.vertex_count))


def test_apply_adjacency_matches_per_edge_loop_on_family_and_power():
    _, base, power, _ = _family_and_power()
    np_rng = np.random.default_rng(61)
    for g in (base, power):
        _assert_kernel_matches_loop(g, _kernel_input(np_rng, g.vertex_count))
        _assert_kernel_matches_loop(g, np.ones(g.vertex_count))


def test_apply_adjacency_edgeless_graph_is_zero():
    g = build_hypergraph(3, 5, [])
    y = apply_adjacency(g, np.arange(1.0, 6.0))
    assert y.dtype == np.float64
    assert np.array_equal(y, np.zeros(5))


def test_apply_adjacency_homogeneous():
    rng = np.random.default_rng(50)
    for _ in range(20):
        g = random_connected_hypergraph(random.Random(int(rng.integers(1 << 30))), 3, 6)
        x = rng.uniform(0.5, 2.0, g.vertex_count)
        t = float(rng.uniform(0.3, 3.0))
        lhs = apply_adjacency(g, t * x)
        rhs = t ** (g.uniformity - 1) * apply_adjacency(g, x)
        assert np.allclose(lhs, rhs)


def test_apply_adjacency_matches_bruteforce():
    rng = random.Random(51)
    np_rng = np.random.default_rng(51)
    for _ in range(15):
        t = rng.choice([2, 3, 4])
        g = random_connected_hypergraph(rng, t, n_max=5)
        x = np_rng.uniform(-1.0, 1.0, g.vertex_count)
        assert np.allclose(apply_adjacency(g, x), adjacency_bruteforce(g, x))


def test_rayleigh_identity():
    rng = random.Random(52)
    np_rng = np.random.default_rng(52)
    for _ in range(15):
        g = random_connected_hypergraph(rng, rng.choice([2, 3]), n_max=6)
        x = np_rng.uniform(0.1, 1.5, g.vertex_count)
        lhs = float(x @ apply_adjacency(g, x))
        rhs = g.uniformity * sum(
            float(np.prod(x[np.array(e) - 1])) for e in g.edges
        )
        assert np.isclose(lhs, rhs)


def test_rho_stock_values():
    est = power_iteration_rho(single_edge(4), tolerance=1e-10)
    assert abs(est.rho - 1.0) <= 1e-10
    est = power_iteration_rho(cycle(4), tolerance=1e-8)
    assert abs(est.rho - 2.0) <= 1e-8
    est = power_iteration_rho(complete(4), tolerance=1e-8)
    assert abs(est.rho - 3.0) <= 1e-8
    assert est.residual <= 1e-8
    assert type(est.eigenvector) is tuple and len(est.eigenvector) == 4
    assert all(type(v) is float and v > 0 for v in est.eigenvector)


def test_rho_matches_dense_eigenvalues_for_graphs():
    rng = random.Random(53)
    for _ in range(10):
        # force an odd cycle so power iteration settles
        base = random_connected_hypergraph(rng, 2, n_max=7)
        n = base.vertex_count
        edges = set(base.edges) | {(1, 2), (2, 3), (1, 3)} if n >= 3 else base.edges
        g = build_hypergraph(2, n, edges)
        dense = np.zeros((n, n))
        for u, v in g.edges:
            dense[u - 1, v - 1] = dense[v - 1, u - 1] = 1.0
        want = max(abs(np.linalg.eigvalsh(dense)))
        est = power_iteration_rho(g, tolerance=1e-9, max_iterations=100000)
        assert abs(est.rho - want) <= 1e-7


def test_rho_bracket_monotone():
    g = build_hypergraph(2, 4, [[1, 2], [1, 3], [2, 3], [3, 4]])
    est = power_iteration_rho(g, tolerance=1e-10, max_iterations=100000)
    assert est.iterations > 1
    for (lo0, hi0), (lo1, hi1) in zip(est.history, est.history[1:]):
        assert lo1 >= lo0 and hi1 <= hi0
    assert est.bracket[0] <= est.rho <= est.bracket[1]


def test_rho_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        power_iteration_rho(cycle(4), tolerance=0.0)
    split = build_hypergraph(2, 4, [[1, 2], [3, 4]])
    with pytest.raises(DisconnectedError):
        power_iteration_rho(split)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_rho_rejects_non_finite_tolerance(tolerance):
    with pytest.raises(ParameterError):
        power_iteration_rho(cycle(4), tolerance=tolerance)


def test_rho_nonconvergence_reports_bracket():
    with pytest.raises(ConvergenceError) as info:
        power_iteration_rho(path(3), tolerance=1e-8, max_iterations=40)
    assert info.value.bracket[0] <= 2.0**0.5 <= info.value.bracket[1]
    assert info.value.iterations == 40


def test_rho_matches_per_edge_kernel():
    # the same iteration counts, and rho within the tolerance, as the
    # iteration on every vertex with the per-edge kernel; not bit for bit,
    # because that one takes a BLAS norm and sums edge by edge
    _, base, power, _ = _family_and_power()
    rng = random.Random(66)
    graphs = [base, power] + [
        random_connected_hypergraph(rng, rng.randint(2, 7), n_max=9) for _ in range(30)
    ]
    for g in graphs:
        want = power_iteration_loop(g, 1e-10, max_iterations=300)
        if want is None:
            with pytest.raises(ConvergenceError):
                power_iteration_rho(g, tolerance=1e-10, max_iterations=300)
            continue
        est = power_iteration_rho(g, tolerance=1e-10, max_iterations=300)
        assert est.iterations == want[2]
        assert abs(est.rho - want[0]) <= 1e-10 + 1e-12 * est.rho
        assert est.residual <= 1e-10


@lru_cache(maxsize=None)
def _family(sizes):
    return nikiforov(NikiforovParams(1, *sizes))


@pytest.mark.parametrize(
    "sizes, exact",
    [((6, 6, 4), "105.574385243020006523"), ((12, 12, 8), "1131.514280402075283129")],
)
def test_rho_matches_the_exact_two_cell_value(sizes, exact):
    # the family and its s = 2, 3 blow-ups share one exact radius, which
    # the iteration at tolerance 1e-10 must reach
    base = _family(sizes)
    t = base.uniformity
    for graph in (base, *(generalized_power(base, s * t, s)[0] for s in (2, 3))):
        rho = two_cell_rho(graph)
        assert abs(rho - Decimal(exact)) < Decimal("1e-18")
        est = power_iteration_rho(graph, tolerance=1e-10)
        assert abs(est.rho - float(rho)) <= 1e-10 + 1e-12 * float(rho)


@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("sizes", [(6, 6, 4), (12, 12, 8)])
def test_rho_of_a_power_is_the_base_rho_to_the_power_st_over_m(sizes, s, pad):
    # rho(G^(m,s)) = rho(G)^(st/m), with both tolerances carried through
    tol = 1e-10
    base = _family(sizes)
    m = s * base.uniformity + pad
    alpha = s * base.uniformity / m
    rho_g = power_iteration_rho(base, tolerance=tol).rho
    rho_p = power_iteration_rho(generalized_power(base, m, s)[0], tolerance=tol).rho
    bound = tol + alpha * rho_g ** (alpha - 1) * tol + 1e-12 * rho_p
    assert abs(rho_p - rho_g**alpha) <= bound


def _graphs_and_powers(rng):
    """Random connected graphs with their s = 2, 3 powers, and stock graphs."""
    for _ in range(12):
        g = random_connected_hypergraph(rng, rng.randint(2, 4), n_max=8)
        yield g
        for s in (2, 3):
            yield generalized_power(g, s * g.uniformity, s)[0]
    # path(9) takes four rounds to split its cells by distance from an end
    yield from (cycle(5), cycle(6), path(9), complete(5), single_edge(4))


def test_refinement_partition_is_equitable():
    rng = random.Random(67)
    for g in _graphs_and_powers(rng):
        cell, sizes, types = _equitable_partition(g)
        kinds = [tuple(sorted(cell[v] for v in edge)) for edge in g.edges]
        assert types == Counter(kinds)
        assert list(types) == list(dict.fromkeys(kinds))
        assert sizes == [cell[1:].count(c) for c in range(len(sizes))]
        # cells are numbered in order of their first vertex
        assert list(dict.fromkeys(cell[1:])) == list(range(len(sizes)))
        seen = [Counter() for _ in range(g.vertex_count + 1)]
        for kind, edge in zip(kinds, g.edges):
            for v in edge:
                seen[v][kind] += 1
        first = {}
        for v in range(1, g.vertex_count + 1):
            assert seen[first.setdefault(cell[v], v)] == seen[v]


def test_family_and_power_have_two_cells_and_two_types():
    # the property the quotient needs to be small: on the paper's family
    # (A and B the same size) and its blow-ups, 2 cells and 2 edge types
    for sizes in ((6, 6, 4), (12, 12, 8)):
        base = nikiforov(NikiforovParams(1, *sizes))
        for g in (base, generalized_power(base, 8, 2)[0]):
            _, cell_sizes, types = _equitable_partition(g)
            assert len(cell_sizes) == 2 and len(types) == 2


def test_contract_on_the_partition_matches_per_edge_loop():
    # for x constant on each cell, the per-cell kernel is the per-edge one
    # within rounding
    rng = random.Random(68)
    _, base, power, _ = _family_and_power()
    for g in [base, power, *_graphs_and_powers(rng)]:
        cell, sizes, types = _equitable_partition(g)
        x = [rng.uniform(0.5, 2.0) for _ in sizes]
        got = _contract(types, sizes, x)
        want = apply_adjacency_loop(g, [x[c] for c in cell[1:]])
        for v in range(1, g.vertex_count + 1):
            assert abs(got[cell[v]] - want[v - 1]) <= 1e-12 * want[v - 1]


def test_rho_raises_on_a_widened_bracket(monkeypatch):
    # a kernel whose result doubles on each call lifts the bracket's upper end
    contract = hypersym.spectral._contract
    calls = []

    def doubling(types, sizes, x):
        calls.append(1)
        return [y * 2.0 ** len(calls) for y in contract(types, sizes, x)]

    monkeypatch.setattr(hypersym.spectral, "_contract", doubling)
    with pytest.raises(InternalConsistencyError, match=r"^bracket widened: "):
        power_iteration_rho(nikiforov(NikiforovParams(1, 6, 6, 4)))


def test_rho_reports_a_non_finite_bracket_at_once():
    # x^399 underflows to 0 for x = 1/20: the bracket is nan from the start
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as info:
            power_iteration_rho(single_edge(400))
    assert info.value.iterations == 1
    assert all(np.isnan(info.value.bracket))


def test_similarity_square_cycle():
    c4 = cycle(4)
    cert = verify_similarity(c4, Coloring(2, (1, 0, 1, 0)), 2)
    assert cert.max_deviation == 0.0
    cert = verify_similarity(c4, Coloring(2, (0, 0, 0, 0)), 2)
    assert np.isclose(cert.max_deviation, 2.0)


def test_similarity_counterexample_family_coloring():
    params = NikiforovParams(1, 6, 6, 4)
    cert = verify_similarity(nikiforov(params), nikiforov_coloring(params), 2)
    assert cert.max_deviation == 0.0


def test_similarity_agrees_with_edge_sum_check():
    rng = random.Random(54)
    for _ in range(30):
        g = random_connected_hypergraph(rng, rng.choice([2, 3]), n_max=6)
        m = g.uniformity
        report = cyclic_index(g)
        for ell, witness in report.divisor_evidence.items():
            if witness is None:
                continue
            assert verify_similarity(g, witness, ell).max_deviation == 0.0
            # corrupt one vertex: both checks must now fail
            values = list(witness.values)
            pos = rng.randrange(len(values))
            values[pos] = (values[pos] + 1) % m
            bad = Coloring(m, values)
            assert not verify_coloring(g, bad, ell)
            assert verify_similarity(g, bad, ell).max_deviation > 1e-12


# The per-edge loop rounds every entry through complex arithmetic, and the
# closed form of `verify_similarity` is exact algebra up to one sine: they
# have been seen to differ by 1.5e-14 at most at the moduli below (m <= 12).
LOOP_TOLERANCE = 1e-13


def _assert_similarity_matches_loop(rng, graphs, uniformities, n_max):
    for _ in range(graphs):
        g = random_connected_hypergraph(rng, rng.choice(uniformities), n_max=n_max)
        m = g.uniformity
        for ell, witness in cyclic_index(g).divisor_evidence.items():
            colorings = [Coloring(m, [rng.randrange(m) for _ in range(g.vertex_count)])]
            if witness is not None:
                values = list(witness.values)
                values[0] = (values[0] + 1) % m
                colorings += [witness, Coloring(m, values)]
            for coloring in colorings:
                got = verify_similarity(g, coloring, ell).max_deviation
                assert abs(got - similarity_deviation_loop(g, coloring, ell)) <= LOOP_TOLERANCE


def test_similarity_matches_per_edge_loop():
    _assert_similarity_matches_loop(random.Random(62), 30, [2, 3, 4, 5, 6], n_max=8)


def test_similarity_matches_per_edge_loop_on_family_and_power():
    params, base, power, layout = _family_and_power()
    base_coloring = nikiforov_coloring(params)
    lifted = lift_single_member(
        layout, Coloring(power.uniformity, [2 * v for v in base_coloring.values])
    )
    for g, coloring in ((base, base_coloring), (power, lifted)):
        for ell in (2, 4):
            got = verify_similarity(g, coloring, ell).max_deviation
            assert abs(got - similarity_deviation_loop(g, coloring, ell)) <= LOOP_TOLERANCE
    # the family coloring is an order-2 witness and not an order-4 one
    assert verify_similarity(base, base_coloring, 2).max_deviation == 0.0
    assert verify_similarity(base, base_coloring, 4).max_deviation > 1.0


@pytest.mark.parametrize("t", [7, 8, 9, 12])
def test_similarity_matches_per_edge_loop_at_high_uniformity(t):
    _assert_similarity_matches_loop(random.Random(70 + t), 4, [t], n_max=t + 3)


def test_similarity_matches_per_edge_loop_on_random_power_colorings():
    # a random coloring gives the edges of the 8-uniform power every residue
    _, _, power, _ = _family_and_power()
    rng = random.Random(65)
    for ell in (1, 2, 4, 8):
        for _ in range(3):
            coloring = Coloring(8, [rng.randrange(8) for _ in range(power.vertex_count)])
            got = verify_similarity(power, coloring, ell).max_deviation
            assert abs(got - similarity_deviation_loop(power, coloring, ell)) <= LOOP_TOLERANCE


def _disjoint_edges(m, tuples):
    """m-uniform graph of disjoint edges, the j-th colored by tuples[j]."""
    edges = [tuple(range(j * m + 1, (j + 1) * m + 1)) for j in range(len(tuples))]
    coloring = Coloring(m, [c for colors in tuples for c in colors])
    return build_hypergraph(m, m * len(tuples), edges), coloring


@pytest.mark.parametrize("m", [5, 6, 7, 8, 9, 10, 12])
def test_similarity_matches_per_edge_loop_on_single_edges(m):
    # with one edge every entry has the edge's residue, so a wrong residue
    # or a wrong sine shows
    rng = random.Random(80 + m)
    for _ in range(150):
        g, coloring = _disjoint_edges(m, [[rng.randrange(m) for _ in range(m)]])
        for ell in divisors(m):
            got = verify_similarity(g, coloring, ell).max_deviation
            assert abs(got - similarity_deviation_loop(g, coloring, ell)) <= LOOP_TOLERANCE


@pytest.mark.parametrize("m", [6, 8, 12])
def test_similarity_matches_per_edge_loop_on_valid_color_tuples(m):
    # every edge sums to m/l, so each entry of the loop deviates from 1 by
    # rounding only, and the closed form reads exactly 0
    rng = random.Random(90 + m)
    for ell in divisors(m):
        tuples = []
        for _ in range(1000):
            head = [rng.randrange(m) for _ in range(m - 1)]
            tuples.append(head + [(m // ell - sum(head)) % m])
        g, coloring = _disjoint_edges(m, tuples)
        assert verify_coloring(g, coloring, ell)
        got = verify_similarity(g, coloring, ell).max_deviation
        assert got == 0.0
        assert abs(got - similarity_deviation_loop(g, coloring, ell)) <= LOOP_TOLERANCE


def test_similarity_deviation_is_zero_exactly_when_the_coloring_verifies():
    # the verdict `verify-coloring` prints rests on this equivalence
    rng = random.Random(95)
    for _ in range(40):
        g = random_connected_hypergraph(rng, rng.choice([2, 3, 4, 5, 6]), n_max=8)
        m = g.uniformity
        for ell, witness in cyclic_index(g).divisor_evidence.items():
            colorings = [Coloring(m, [rng.randrange(m) for _ in range(g.vertex_count)])]
            if witness is not None:
                values = list(witness.values)
                values[rng.randrange(len(values))] += 1
                colorings += [witness, Coloring(m, values)]
            for coloring in colorings:
                deviation = verify_similarity(g, coloring, ell).max_deviation
                assert (deviation == 0.0) == verify_coloring(g, coloring, ell)
    # one edge whose color sum misses m/l by r, up to moduli where the
    # loop's power of a phase is no longer binary powering (m > 100); the
    # loop rounds m products and an (m-1)-th power, and has been seen to
    # stray by 4.3 m ulp, so its tolerance grows with m
    for m in (2, 3, 4, 6, 12, 64, 100, 101, 127, 128):
        tolerance = 16 * m * sys.float_info.epsilon
        for ell in divisors(m):
            for r in sorted({0, m // 2, m - 1}):
                head = [rng.randrange(m) for _ in range(m - 1)]
                g, coloring = _disjoint_edges(m, [head + [(m // ell + r - sum(head)) % m]])
                deviation = verify_similarity(g, coloring, ell).max_deviation
                assert verify_coloring(g, coloring, ell) == (r == 0) == (deviation == 0.0)
                assert abs(deviation - similarity_deviation_loop(g, coloring, ell)) <= tolerance
