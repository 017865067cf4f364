import itertools
import random

import pytest

from hypersym import (
    DimensionMismatchError,
    ModMatrix,
    ModVector,
    ModulusMismatchError,
    build_hypergraph,
    incidence_matrix,
    mat_vec_mod,
    solve_linear_mod,
)

from helpers import enumeration_solvable


def solves(matrix: ModMatrix, x: ModVector, rhs: ModVector) -> bool:
    return mat_vec_mod(matrix, x).entries == rhs.entries


def test_entries_reduced_on_construction():
    a = ModMatrix(4, [[6, -1], [4, 9]])
    assert a.entries == ((2, 3), (0, 1))
    v = ModVector(5, [7, -2])
    assert v.entries == (2, 3)


def test_mat_vec_examples():
    a = ModMatrix(2, [[1, 1], [0, 1]])
    assert mat_vec_mod(a, ModVector(2, [1, 1])).entries == (0, 1)
    ident = ModMatrix(7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for trial in range(5):
        b = ModVector(7, [trial, trial + 2, 6 - trial])
        assert mat_vec_mod(ident, b).entries == b.entries
    assert mat_vec_mod(ModMatrix(4, [[2, 3]]), ModVector(4, [1, 2])).entries == (0,)


def test_mismatch_errors():
    a = ModMatrix(4, [[1, 2]])
    with pytest.raises(ModulusMismatchError):
        mat_vec_mod(a, ModVector(5, [1, 2]))
    with pytest.raises(DimensionMismatchError):
        mat_vec_mod(a, ModVector(4, [1, 2, 3]))
    with pytest.raises(ModulusMismatchError):
        solve_linear_mod(a, ModVector(5, [1]))
    with pytest.raises(DimensionMismatchError):
        solve_linear_mod(a, ModVector(4, [1, 2]))


def test_solve_single_entry():
    a = ModMatrix(4, [[2]])
    x = solve_linear_mod(a, ModVector(4, [2]))
    assert x is not None and (2 * x.entries[0]) % 4 == 2
    assert solve_linear_mod(a, ModVector(4, [1])) is None


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
    assert solve_linear_mod(a, ModVector(2, [1, 1, 1])) is None


def test_square_cycle_mod2_solvable():
    square = build_hypergraph(2, 4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    a = ModMatrix(2, incidence_matrix(square))
    rhs = ModVector(2, [1, 1, 1, 1])
    x = solve_linear_mod(a, rhs)
    assert x is not None and solves(a, x, rhs)


def test_zero_system_returns_zero_witness():
    a = ModMatrix(6, [[0, 0], [0, 0]])
    x = solve_linear_mod(a, ModVector(6, [0, 0]))
    assert x is not None and x.entries == (0, 0)


def test_upper_triangular_trap():
    # Solvable only if the lower ambiguity is threaded through the top row:
    # 4x + y = 7, 4y = 4 (mod 8) has solutions with y in {3, 7} only.
    a = ModMatrix(8, [[4, 1], [0, 4]])
    rhs = ModVector(8, [7, 4])
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
        b = ModVector(m, rhs)
        x = solve_linear_mod(a, b)
        assert (x is not None) == enumeration_solvable(entries, rhs, m)
        if x is not None:
            assert solves(a, x, b)


def test_planted_solutions_always_found():
    rng = random.Random(20241)
    for _ in range(300):
        m = rng.randint(2, 12)
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        entries = [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]
        planted = ModVector(m, [rng.randrange(m) for _ in range(cols)])
        a = ModMatrix(m, entries)
        b = mat_vec_mod(a, planted)
        x = solve_linear_mod(a, b)
        assert x is not None and solves(a, x, b)
        # any two solutions differ by a kernel vector
        diff = ModVector(m, [p - q for p, q in zip(planted.entries, x.entries)])
        assert all(e == 0 for e in mat_vec_mod(a, diff).entries)
