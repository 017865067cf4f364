import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersym.power
from hypersym import (
    BudgetExceededError,
    Coloring,
    DisconnectedError,
    InternalConsistencyError,
    NikiforovParams,
    ParameterError,
    build_hypergraph,
    conjecture_check,
    cycle,
    cyclic_index,
    generalized_power,
    is_connected,
    nikiforov,
    power_cyclic_index_shortcut,
    verify_coloring,
)
from helpers import (
    lift_block_constant,
    lift_single_member,
    nikiforov_edge_count,
    per_divisor_report,
    random_connected_hypergraph,
)


def test_power_counts_pure_blowup():
    g, layout = generalized_power(cycle(3), 4, 2)
    assert g.uniformity == 4
    assert g.vertex_count == 6
    assert g.edge_count == 3
    assert layout.edge_blocks == ((), (), ())


def test_power_counts_with_padding():
    g, layout = generalized_power(cycle(3), 3, 1)
    assert g.uniformity == 3
    assert g.vertex_count == 6
    assert g.edge_count == 3
    assert all(len(b) == 1 for b in layout.edge_blocks)


def test_power_counts_nikiforov():
    base = nikiforov(NikiforovParams(1, 6, 6, 4))
    g, _ = generalized_power(base, 8, 2)
    assert g.vertex_count == 32
    assert g.edge_count == 420
    assert g.uniformity == 8


def test_layout_blocks_partition_new_vertices():
    rng = random.Random(40)
    for _ in range(20):
        base = random_connected_hypergraph(rng, rng.choice([2, 3]), n_max=6)
        s = rng.choice([1, 2, 3])
        m = s * base.uniformity + rng.choice([0, 1, 2])
        g, layout = generalized_power(base, m, s)
        blocks = list(layout.vertex_blocks) + list(layout.edge_blocks)
        flat = [v for block in blocks for v in block]
        assert sorted(flat) == list(range(1, g.vertex_count + 1))
        assert all(len(b) == s for b in layout.vertex_blocks)
        assert all(len(b) == m - s * base.uniformity for b in layout.edge_blocks)
        # the base vertex sits first in its block
        for v, block in enumerate(layout.vertex_blocks, start=1):
            assert block[0] == (v - 1) * s + 1
        assert is_connected(g) == is_connected(base)


def test_power_parameter_errors():
    with pytest.raises(ParameterError):
        generalized_power(cycle(3), 4, 0)
    with pytest.raises(ParameterError):
        generalized_power(cycle(3), 3, 2)


def test_power_entry_budget_boundary(monkeypatch):
    # the 4-cycle's s=2 power lists 4 edges of 4 vertices: 16 entries
    monkeypatch.setattr(hypersym.power, "ENTRY_BUDGET", 16)
    power, _ = generalized_power(cycle(4), 4, 2)
    assert power.edge_count * power.uniformity == 16
    with pytest.raises(BudgetExceededError, match="20 edge entries"):
        generalized_power(cycle(4), 5, 2)
    monkeypatch.setattr(hypersym.power, "ENTRY_BUDGET", 15)
    with pytest.raises(BudgetExceededError, match="over the budget of 15"):
        generalized_power(cycle(4), 4, 2)
    # one edge of 4 entries, but a vertex block for every declared vertex
    monkeypatch.setattr(hypersym.power, "ENTRY_BUDGET", 16)
    with pytest.raises(BudgetExceededError, match="18 vertices"):
        generalized_power(build_hypergraph(2, 9, [(1, 2)]), 4, 2)
    power, _ = generalized_power(build_hypergraph(2, 8, [(1, 2)]), 4, 2)
    assert power.vertex_count == 16


def test_power_entry_budget_refuses_before_building():
    # 8 * 10^11 entries: building any block would exhaust memory
    with pytest.raises(BudgetExceededError):
        generalized_power(cycle(4), 2 * 10**11, 10**11)
    with pytest.raises(BudgetExceededError):
        generalized_power(cycle(4), 10**11, 2)
    # the largest three-class family under the edge budget keeps its s=2 power
    entries = nikiforov_edge_count(NikiforovParams(2, 14, 14, 10)) * 16
    assert entries == 15_471_456 <= hypersym.power.ENTRY_BUDGET


def test_blowup_self_check_raises_when_its_witness_fails(monkeypatch):
    # every pure blow-up is checked against its order-s witness
    monkeypatch.setattr(hypersym.power, "verify_coloring", lambda *args: False)
    with pytest.raises(
        InternalConsistencyError, match=r"^blow-up lost its order-s witness$"
    ):
        generalized_power(cycle(4), 4, 2)


def test_shortcut():
    assert power_cyclic_index_shortcut(cycle(3), 5, 2) == 5
    assert power_cyclic_index_shortcut(cycle(3), 4, 2) is None
    assert power_cyclic_index_shortcut(cycle(3), 3, 1) == 3
    with pytest.raises(ParameterError):
        power_cyclic_index_shortcut(cycle(3), 3, 2)


def test_shortcut_agrees_with_full_computation():
    rng = random.Random(41)
    for _ in range(10):
        base = random_connected_hypergraph(rng, 2, n_max=5)
        s = rng.choice([1, 2])
        m = 2 * s + rng.choice([1, 2])
        g, _ = generalized_power(base, m, s)
        assert cyclic_index(g).cyclic_index == power_cyclic_index_shortcut(base, m, s)


def test_block_constant_lift_preserves_symmetry_order():
    rng = random.Random(42)
    for _ in range(25):
        base = random_connected_hypergraph(rng, rng.choice([2, 3]), n_max=6)
        s = rng.choice([2, 3])
        power, layout = generalized_power(base, s * base.uniformity, s)
        report = cyclic_index(base)
        for ell, witness in report.divisor_evidence.items():
            if witness is None:
                continue
            lifted = lift_block_constant(layout, witness)
            assert verify_coloring(power, lifted, ell)


def test_single_member_lift_gives_order_s():
    rng = random.Random(43)
    for _ in range(25):
        base = random_connected_hypergraph(rng, rng.choice([2, 3]), n_max=6)
        s = rng.choice([2, 3, 4])
        power, layout = generalized_power(base, s * base.uniformity, s)
        ones = Coloring(layout.uniformity, [1] * base.vertex_count)
        phi = lift_single_member(layout, ones)
        assert verify_coloring(power, phi, s)


def test_single_member_lift_of_base_system_solution():
    # a base solution of B x = (t/c) 1 over Z_m lifts to an order s*c witness
    rng = random.Random(44)
    for _ in range(15):
        base = random_connected_hypergraph(rng, 2, n_max=6)
        s = rng.choice([2, 3])
        report = conjecture_check(base, s)
        if not report.characterization_solvable:
            continue
        from hypersym import ModMatrix, incidence_matrix, solve_linear_mod

        m = s * base.uniformity
        c = report.base_cyclic_index
        inc = incidence_matrix(base)
        x = solve_linear_mod(ModMatrix(m, inc), [base.uniformity // c] * len(inc))
        assert x is not None
        power, layout = generalized_power(base, m, s)
        lifted = lift_single_member(layout, Coloring(m, x))
        assert verify_coloring(power, lifted, s * c)


def test_conjecture_square_cycle():
    report = conjecture_check(cycle(4), 2)
    assert report.base_cyclic_index == 2
    assert report.power_cyclic_index == 4
    assert report.product == 4
    assert report.equality and report.characterization_solvable
    # independent check of the witness named for this case
    g = cycle(4)
    for edge in g.edges:
        assert sum((1, 0, 1, 0)[v - 1] for v in edge) % 4 == 1


def test_conjecture_preconditions():
    with pytest.raises(ParameterError):
        conjecture_check(cycle(4), 1)
    split = build_hypergraph(2, 4, [[1, 2], [3, 4]])
    with pytest.raises(DisconnectedError):
        conjecture_check(split, 2)


def test_divisibility_chain_smoke():
    rng = random.Random(45)
    for _ in range(25):
        base = random_connected_hypergraph(rng, rng.choice([2, 3]), n_max=7)
        s = rng.choice([2, 3, 4])
        report = conjecture_check(base, s)
        c, cp = report.base_cyclic_index, report.power_cyclic_index
        assert cp % s == 0
        assert cp % c == 0
        assert (s * c) % cp == 0
        assert cp % (s * c // gcd(s, c)) == 0
        assert report.guaranteed_symmetry == s * c // gcd(s, c)


def test_padded_power_cyclic_index_is_uniformity():
    # with padding vertices each edge has a degree-1 vertex: index equals m
    g, _ = generalized_power(cycle(3), 5, 2)
    assert cyclic_index(g).cyclic_index == 5
    report = cyclic_index(g)
    assert all(w is not None for w in report.divisor_evidence.values())


def _assert_base_route_matches_built_power(base, s):
    # oracle: the cyclic index of the power that is actually built
    m = s * base.uniformity
    power, layout = generalized_power(base, m, s)
    built = cyclic_index(power)
    assert conjecture_check(base, s).power_cyclic_index == built.cyclic_index
    over_zm = per_divisor_report(base, m)
    assert over_zm.cyclic_index == built.cyclic_index
    for ell, witness in over_zm.divisor_evidence.items():
        assert (witness is None) == (built.divisor_evidence[ell] is None)
        if witness is not None:
            assert verify_coloring(power, lift_single_member(layout, witness), ell)


def test_power_index_from_base_matches_built_power_random():
    rng = random.Random(46)
    for _ in range(300):
        base = random_connected_hypergraph(rng, rng.choice([2, 3, 4]), n_max=7)
        _assert_base_route_matches_built_power(base, rng.choice([2, 3, 4, 5]))


@settings(max_examples=60, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    t=st.integers(2, 4),
    s=st.integers(2, 4),
)
def test_power_index_from_base_matches_built_power_property(rng, t, s):
    _assert_base_route_matches_built_power(random_connected_hypergraph(rng, t, 7), s)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_power_index_from_base_matches_built_power_family(s):
    _assert_base_route_matches_built_power(nikiforov(NikiforovParams(1, 6, 6, 4)), s)


def test_conjecture_check_never_builds_the_power(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("conjecture_check built the power")

    monkeypatch.setattr(hypersym.power, "generalized_power", refuse)
    family = nikiforov(NikiforovParams(1, 6, 6, 4))
    assert conjecture_check(family, 2).power_cyclic_index == 2
    assert conjecture_check(family, 3).power_cyclic_index == 6
    assert conjecture_check(cycle(4), 2).power_cyclic_index == 4
