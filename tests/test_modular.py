import itertools
import random
import tracemalloc

import pytest

import hypersym.modular
from hypersym import (
    DimensionMismatchError,
    InternalConsistencyError,
    ModMatrix,
    NikiforovParams,
    ParameterError,
    build_hypergraph,
    cycle,
    divisors,
    generalized_power,
    incidence_matrix,
    nikiforov,
    path,
    single_edge,
    solve_linear_mod,
)
from hypersym.modular import _eliminate
from hypersym.symmetry import _index_generator

from helpers import DenseSpanBasis, enumeration_solvable, mat_vec_mod, random_hypergraph


def solves(matrix: ModMatrix, x, rhs) -> bool:
    return mat_vec_mod(matrix, x) == tuple(rhs)


def test_entries_reduced_on_construction():
    a = ModMatrix(4, [[6, -1], [4, 9]])
    assert a.entries == ((2, 3), (0, 1))


def test_mismatch_errors():
    a = ModMatrix(4, [[1, 2]])
    with pytest.raises(DimensionMismatchError):
        solve_linear_mod(a, [1, 2])
    with pytest.raises(ParameterError):
        ModMatrix(1, [[1]])
    with pytest.raises(ParameterError):
        ModMatrix(2, [])


def test_solve_single_entry():
    a = ModMatrix(4, [[2]])
    x = solve_linear_mod(a, [2])
    assert x is not None and (2 * x[0]) % 4 == 2
    assert solve_linear_mod(a, [1]) is None
    # the right-hand side is read mod m
    assert solve_linear_mod(a, [6]) is not None
    assert solve_linear_mod(a, [-3]) is None


def test_solver_self_check_raises_on_a_non_solution(monkeypatch):
    a = ModMatrix(2, [[1, 1], [0, 1]])
    monkeypatch.setattr(hypersym.modular, "_eliminate", lambda *args: (1, [0, 0, 0]))
    with pytest.raises(InternalConsistencyError, match=r"^solver produced a non-solution$"):
        solve_linear_mod(a, [1, 1])


def test_solver_self_check_reads_the_weights(monkeypatch):
    # x = 2 solves x = 2 but not 2x = 2 (mod 5): a check that read the
    # entry 2 as a 0/1 incidence would pass it
    monkeypatch.setattr(hypersym.modular, "_eliminate", lambda *args: (1, [0, 2]))
    with pytest.raises(InternalConsistencyError, match=r"^solver produced a non-solution$"):
        solve_linear_mod(ModMatrix(5, [[2]]), [2])


def test_triangle_mod2_unsolvable():
    # oracle first: enumerate all 8 vectors in Z_2^3
    triangle = build_hypergraph(2, 3, [[1, 2], [2, 3], [1, 3]])
    entries = incidence_matrix(triangle)
    oracle = any(
        all(sum(r * v for r, v in zip(row, x)) % 2 == 1 for row in entries)
        for x in itertools.product(range(2), repeat=3)
    )
    assert oracle is False
    a = ModMatrix(2, entries)
    assert solve_linear_mod(a, [1, 1, 1]) is None


def test_square_cycle_mod2_solvable():
    square = build_hypergraph(2, 4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    a = ModMatrix(2, incidence_matrix(square))
    rhs = [1, 1, 1, 1]
    x = solve_linear_mod(a, rhs)
    assert x is not None and solves(a, x, rhs)


def test_zero_system_returns_zero_witness():
    a = ModMatrix(6, [[0, 0], [0, 0]])
    x = solve_linear_mod(a, [0, 0])
    assert x == (0, 0)


def test_upper_triangular_trap():
    # Solvable only if the lower ambiguity is threaded through the top row:
    # 4x + y = 7, 4y = 4 (mod 8) has solutions with y in {3, 7} only.
    a = ModMatrix(8, [[4, 1], [0, 4]])
    rhs = [7, 4]
    x = solve_linear_mod(a, rhs)
    assert x is not None and solves(a, x, rhs)


def test_verdicts_match_enumeration():
    rng = random.Random(20240)
    for _ in range(1000):
        m = rng.randint(2, 8)
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        entries = [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]
        rhs = [rng.randrange(m) for _ in range(rows)]
        a = ModMatrix(m, entries)
        x = solve_linear_mod(a, rhs)
        assert (x is not None) == enumeration_solvable(entries, rhs, m)
        if x is not None:
            assert solves(a, x, rhs)


def test_planted_solutions_always_found():
    rng = random.Random(20241)
    for _ in range(300):
        m = rng.randint(2, 12)
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        entries = [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]
        planted = [rng.randrange(m) for _ in range(cols)]
        a = ModMatrix(m, entries)
        b = mat_vec_mod(a, planted)
        x = solve_linear_mod(a, b)
        assert x is not None and solves(a, x, b)
        # any two solutions differ by a kernel vector
        diff = [p - q for p, q in zip(planted, x)]
        assert all(e == 0 for e in mat_vec_mod(a, diff))


def test_entries_near_a_large_modulus_solve_at_once():
    # an entry costs one product, whatever its size
    m = 1_000_000_007
    a = ModMatrix(m, [[m - 1, m - 2], [m - 3, 5]])
    planted = [123_456_789, m - 42]
    b = mat_vec_mod(a, planted)
    x = solve_linear_mod(a, b)
    assert x is not None and solves(a, x, b)
    assert solve_linear_mod(ModMatrix(m, [[m - 1]]), [7]) == (m - 7,)


def _image(dense, x, modulus):
    return [sum(e * v for e, v in zip(row, x)) % modulus for row in dense]


def _assert_generator_matches_oracle(rng, modulus, width, rows, weights, dense):
    """`_eliminate` against the dense transposed basis. For every divisor
    target (all-ones among them), random target and target with a planted
    solution, it returns (g, x) with A x = g * target, g dividing m and g
    the least d whose d * target the oracle expresses; so g = 1 exactly
    when the target is in the span. The same holds for the matrix with
    its columns in reverse order and in a random order drawn from `rng`,
    each checked against the oracle on the original order. `rows` number
    columns from 1, and x has a leading zero slot that the oracle's
    lacks."""
    oracle = DenseSpanBasis(modulus, dense)
    k = len(dense)
    targets = [[modulus // ell] * k for ell in divisors(modulus)]
    for _ in range(3):
        targets.append([rng.randrange(modulus) for _ in range(k)])
        x = [rng.randrange(modulus) for _ in range(width)]
        targets.append(_image(dense, x, modulus))
    least = [
        next(d for d in divisors(modulus) if oracle.express([d * w for w in target]) is not None)
        for target in targets
    ]
    # the column order is only a speed choice: reversed and shuffled
    # columns give the same g
    perms = [list(range(width, 0, -1)), rng.sample(range(1, width + 1), width)]
    copies = [(rows, dense)]
    for perm in perms:
        # column j of the copy is column perm[j - 1] of A
        place = {c: j for j, c in enumerate(perm, 1)}
        copies.append((
            [[place[c] for c in cols] for cols in rows],
            [[row[c - 1] for c in perm] for row in dense],
        ))
    for cols, matrix in copies:
        for target, d in zip(targets, least):
            g, x = _eliminate(modulus, width, cols, weights, target)
            assert x[0] == 0 and len(x) == width + 1
            assert _image(matrix, x[1:], modulus) == [g * w % modulus for w in target]
            assert modulus % g == 0 and g == d


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_span_basis_matches_dense_oracle_on_random_incidences(t):
    rng = random.Random(500 + t)
    for _ in range(30):
        base = random_hypergraph(rng, t, n_max=t + 5)
        graphs = [base]
        if {v for edge in base.edges for v in edge} == set(range(1, base.vertex_count + 1)):
            # the blow-up has twin columns, one class per base vertex
            graphs.append(generalized_power(base, 2 * t, 2)[0])
        for g in graphs:
            # two zero columns past the last vertex, so that twin classes
            # and zero columns meet in every case
            dense = [row + (0, 0) for row in incidence_matrix(g)]
            for q in (t, 2 * t, 3 * t):
                _assert_generator_matches_oracle(
                    rng, q, g.vertex_count + 2, g.edges, None, dense
                )


def test_span_basis_matches_dense_oracle_on_family_and_power():
    rng = random.Random(510)
    base = nikiforov(NikiforovParams(1, 6, 6, 4))
    power, _ = generalized_power(base, 8, 2)
    for g in (base, power):
        t, dense = g.uniformity, incidence_matrix(g)
        for q in (t, 2 * t, 3 * t):
            _assert_generator_matches_oracle(rng, q, g.vertex_count, g.edges, None, dense)


def test_span_basis_matches_dense_oracle_on_random_matrices():
    rng = random.Random(511)
    for _ in range(300):
        m = rng.choice([rng.randint(2, 36), rng.randint(2, 10**6)])
        k, n = rng.randint(1, 6), rng.randint(1, 6)
        dense = [
            [rng.randrange(m) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(k)
        ]
        cols = [[j for j, a in enumerate(row, 1) if a] for row in dense]
        weights = [[row[j - 1] for j in c] for row, c in zip(dense, cols)]
        _assert_generator_matches_oracle(rng, m, n, cols, weights, dense)


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("family", [path, cycle])
def test_span_basis_holds_one_coefficient_vector_per_column(family, q):
    # the elimination that builds the span holds at most one coefficient
    # vector of n + 1 slots per column: a row that folds into a pivot or
    # becomes one leaves no second copy of its entries behind
    g = family(800)
    n = g.vertex_count
    tracemalloc.start()
    try:
        _eliminate(q, n, g.edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * (n + 1) * 8


@pytest.mark.parametrize("graph,bound", [
    pytest.param(path(4000), 20_000_000, id="path"),
    pytest.param(cycle(4000), 20_000_000, id="cycle"),
    pytest.param(single_edge(6000), 20_000_000, id="single_edge"),
    # 9.6 and 3.0 MB, against 16.8 and 9.7 MB for the elimination that
    # chose each column by a heap over a column -> rows index
    pytest.param(path(20000), 12_500_000, id="path-20000"),
    pytest.param(single_edge(20000), 6_000_000, id="single_edge-20000"),
])
def test_index_generator_memory_is_linear(graph, bound):
    # one dict per row of the system, with no n-slot vector per column:
    # 1.9 MB on path(4000), where n^2 slots would take 128 MB
    tracemalloc.start()
    try:
        _index_generator(graph, graph.uniformity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_a_residual_off_its_pivot_fails_back_substitution(monkeypatch):
    # 2 x = b over Z_4 is the row 2 x + 3 b = 0, whose annihilator row
    # 2 b = 0 makes g = 2; a g of 1 leaves the residual 3 at the pivot 2
    monkeypatch.setattr(hypersym.modular, "lcm", lambda *args: 1)
    message = "back-substitution over Z_4: pivot 2 does not divide residual 3"
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        solve_linear_mod(ModMatrix(4, [[2]]), [1])
