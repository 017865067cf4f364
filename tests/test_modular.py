import itertools
import random
from math import gcd

import pytest

import hypersym.modular
from hypersym import (
    DimensionMismatchError,
    InternalConsistencyError,
    ModMatrix,
    NikiforovParams,
    ParameterError,
    build_hypergraph,
    divisors,
    generalized_power,
    incidence_matrix,
    mat_vec_mod,
    nikiforov,
    solve_linear_mod,
)
from hypersym.modular import _SpanBasis

from helpers import DenseSpanBasis, enumeration_solvable, random_hypergraph


def solves(matrix: ModMatrix, x, rhs) -> bool:
    return mat_vec_mod(matrix, x) == tuple(rhs)


def test_entries_reduced_on_construction():
    a = ModMatrix(4, [[6, -1], [4, 9]])
    assert a.entries == ((2, 3), (0, 1))


def test_mat_vec_examples():
    a = ModMatrix(2, [[1, 1], [0, 1]])
    assert mat_vec_mod(a, [1, 1]) == (0, 1)
    ident = ModMatrix(7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for trial in range(5):
        b = (trial, trial + 2, 6 - trial)
        assert mat_vec_mod(ident, b) == b
    assert mat_vec_mod(ModMatrix(4, [[2, 3]]), [1, 2]) == (0,)
    # the vector is read mod m
    assert mat_vec_mod(ModMatrix(5, [[1, 0], [0, 1]]), [7, -2]) == (2, 3)


def test_mismatch_errors():
    a = ModMatrix(4, [[1, 2]])
    with pytest.raises(DimensionMismatchError):
        mat_vec_mod(a, [1, 2, 3])
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
    monkeypatch.setattr(hypersym.modular, "mat_vec_mod", lambda *args: (0, 0))
    with pytest.raises(InternalConsistencyError, match=r"^solver produced a non-solution$"):
        solve_linear_mod(a, [1, 1])


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


def _assert_same_basis(rng, modulus, width, rows, weights, dense):
    """Coefficient-only basis against the dense-vector oracle: the same
    pivots in the same order. For every divisor target (all-ones among
    them), random target and target with a planted solution, the walk
    solves A x = a * target; a = 1 exactly when the oracle expresses the
    target, and x is then the oracle's solution; gcd(a, m) is the least
    divisor d of m whose d * target the oracle expresses. `rows` number
    columns from 1, and every coefficient vector has a leading zero slot
    that the oracle's lacks."""
    new = _SpanBasis(modulus, width, rows, weights)
    old = DenseSpanBasis(modulus, dense)
    assert list(new.pivots) == list(old.pivots)
    for pos, (p, pcoef) in new.pivots.items():
        old_p, _, old_pcoef = old.pivots[pos]
        assert (p, pcoef) == (old_p, [0, *old_pcoef])
    k = len(dense)
    targets = [[modulus // ell] * k for ell in divisors(modulus)]
    for _ in range(3):
        targets.append([rng.randrange(modulus) for _ in range(k)])
        x = [rng.randrange(modulus) for _ in range(width)]
        targets.append([sum(a * v for a, v in zip(row, x)) % modulus for row in dense])
    for target in targets:
        a, x = new.express(target)
        assert x[0] == 0
        assert [sum(e * v for e, v in zip(row, x[1:])) % modulus for row in dense] == [
            a * w % modulus for w in target
        ]
        expected = old.express(target)
        assert (a == 1) == (expected is not None)
        if a == 1:
            assert x == [0, *expected]
        least = next(
            d for d in divisors(modulus)
            if old.express([d * w for w in target]) is not None
        )
        assert gcd(a, modulus) == least


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_span_basis_matches_dense_oracle_on_random_incidences(t):
    rng = random.Random(500 + t)
    for _ in range(30):
        base = random_hypergraph(rng, t, n_max=t + 5)
        # the blow-up has twin columns, one class per base vertex
        for g in (base, generalized_power(base, 2 * t, 2)[0]):
            for q in (t, 2 * t, 3 * t):
                _assert_same_basis(rng, q, g.vertex_count, g.edges, None, incidence_matrix(g))


def test_span_basis_matches_dense_oracle_on_family_and_power():
    rng = random.Random(510)
    base = nikiforov(NikiforovParams(1, 6, 6, 4))
    power, _ = generalized_power(base, 8, 2)
    for g in (base, power):
        t = g.uniformity
        for q in (t, 2 * t, 3 * t):
            _assert_same_basis(rng, q, g.vertex_count, g.edges, None, incidence_matrix(g))


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
        _assert_same_basis(rng, m, n, cols, weights, dense)


@pytest.mark.parametrize("modulus", [8, 16])
def test_twin_kernel_rows_cost_no_evaluation(modulus):
    # the two members of a vertex block of the s=2 power lie in the same
    # edges: their difference is a kernel row, which `_scan` finds zero from
    # the class sums alone, without evaluating one row of the matrix
    power, layout = generalized_power(nikiforov(NikiforovParams(1, 6, 6, 4)), 8, 2)
    basis = _SpanBasis(modulus, power.vertex_count, power.edges)
    calls = []

    def counted(terms):
        def call(coef):
            calls.append(1)
            return terms(coef)
        return call

    basis.terms = [counted(terms) for terms in basis.terms]
    k = power.edge_count
    for a, b in layout.vertex_blocks:
        coef = [0] * (power.vertex_count + 1)
        coef[a], coef[b] = 1, modulus - 1
        assert basis._scan(coef, 0) == (k, 0)
    assert not calls
    # a row with a nonzero class sum is still evaluated, up to its first hit
    coef[b] = 0
    first = next(pos for pos, edge in enumerate(power.edges) if a in edge)
    assert basis._scan(coef, 0) == (first, 1)
    assert len(calls) == 1
