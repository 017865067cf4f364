"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test also asserts, so a plain pytest run gates on the same
checks.
"""

import random
import time
from math import gcd

from hypersym import (
    Coloring,
    ModMatrix,
    NikiforovParams,
    complete,
    conjecture_check,
    cycle,
    cyclic_index,
    generalized_power,
    incidence_matrix,
    nikiforov,
    power_iteration_rho,
    single_edge,
    solve_linear_mod,
    verify_coloring,
    verify_similarity,
)
from hypersym.cli import main
from hypersym.fileio import write_hypergraph

from helpers import enumeration_solvable, random_connected_hypergraph


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _conjecture_corpus(seed: int, count: int):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        t = rng.choice([2, 3])
        s = rng.choice([2, 3, 4])
        cases.append((random_connected_hypergraph(rng, t, n_max=8), s))
    return cases


def test_criterion_1_counterexample_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    target = tmp_path / "nik.hg"
    write_hypergraph(nikiforov(NikiforovParams(1, 6, 6, 4)), target)

    assert main(["analyze", str(target)]) == 0
    analyze_out = capsys.readouterr().out
    code = main(["conjecture", str(target), "--s", "2"])
    conjecture_out = capsys.readouterr().out
    elapsed = time.perf_counter() - start

    ok = (
        "cyclic_index = 2" in analyze_out
        and code == 10
        and "power_cyclic_index = 2" in conjecture_out
        and "product = 4" in conjecture_out
        and "equality = false" in conjecture_out
        and "characterization_solvable = false" in conjecture_out
        and elapsed < 30.0
    )
    with capsys.disabled():
        _verdict(
            1,
            ok,
            f"c(G)=2, c(G^(8,2))=2 != 4, characterization unsolvable "
            f"({elapsed:.2f}s)",
        )


def test_criterion_2_equality_cases(capsys):
    nik = nikiforov(NikiforovParams(1, 6, 6, 4))
    r3 = conjecture_check(nik, 3)
    r4 = conjecture_check(cycle(4), 2)
    ok = (
        r3.power_cyclic_index == 6
        and r3.product == 6
        and r3.equality
        and r4.power_cyclic_index == 4
        and r4.equality
        and r4.characterization_solvable
    )
    with capsys.disabled():
        _verdict(2, ok, "c(G^(12,3))=6=3*c(G); c(C4^(4,2))=4 with solvable system")


def test_criterion_3_equality_matches_solvability(capsys):
    cases = _conjecture_corpus(seed=777, count=100)
    exceptions = 0
    for graph, s in cases:
        t = graph.uniformity
        m = s * t
        base_c = cyclic_index(graph).cyclic_index
        power, _ = generalized_power(graph, m, s)
        power_c = cyclic_index(power).cyclic_index
        inc = incidence_matrix(graph)
        witness = solve_linear_mod(ModMatrix(m, inc), [t // base_c] * len(inc))
        if (power_c == s * base_c) != (witness is not None):
            exceptions += 1
    ok = exceptions == 0
    with capsys.disabled():
        _verdict(
            3,
            ok,
            f"equality <=> base-system solvability on {len(cases)} random "
            f"instances, {exceptions} exceptions",
        )


def test_criterion_4_divisibility_chain(capsys):
    cases = _conjecture_corpus(seed=778, count=100)
    exceptions = 0
    for graph, s in cases:
        report = conjecture_check(graph, s)
        c, cp = report.base_cyclic_index, report.power_cyclic_index
        lcm = s * c // gcd(s, c)
        if cp % s or cp % c or (s * c) % cp or cp % lcm:
            exceptions += 1
    ok = exceptions == 0
    with capsys.disabled():
        _verdict(
            4,
            ok,
            f"s | c(power), c(base) | c(power), c(power) | s*c(base), "
            f"lcm | c(power) on {len(cases)} instances, {exceptions} exceptions",
        )


def test_criterion_5_solver_completeness(capsys):
    rng = random.Random(779)
    mismatches = 0
    count = 1000
    for _ in range(count):
        m = rng.randint(2, 8)
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        entries = [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]
        rhs = [rng.randrange(m) for _ in range(rows)]
        got = solve_linear_mod(ModMatrix(m, entries), rhs)
        if (got is not None) != enumeration_solvable(entries, rhs, m):
            mismatches += 1
    ok = mismatches == 0
    with capsys.disabled():
        _verdict(
            5, ok, f"verdicts match enumeration on {count} systems, "
            f"{mismatches} mismatches"
        )


def test_criterion_6_coloring_similarity_consistency(capsys):
    rng = random.Random(780)
    graphs = [cycle(4), cycle(6), single_edge(4), nikiforov(NikiforovParams(1, 6, 6, 4))]
    graphs += [random_connected_hypergraph(rng, rng.choice([2, 3]), 7) for _ in range(20)]
    checked = 0
    ok = True
    for graph in graphs:
        m = graph.uniformity
        report = cyclic_index(graph)
        for ell, witness in report.divisor_evidence.items():
            if witness is None:
                continue
            checked += 1
            if not verify_coloring(graph, witness, ell):
                ok = False
            if verify_similarity(graph, witness, ell).max_deviation > 1e-12:
                ok = False
            values = list(witness.values)
            pos = rng.randrange(len(values))
            values[pos] = (values[pos] + 1) % m
            corrupted = Coloring(m, values)
            if verify_coloring(graph, corrupted, ell):
                ok = False
            if verify_similarity(graph, corrupted, ell).max_deviation <= 1e-12:
                ok = False
    with capsys.disabled():
        _verdict(
            6,
            ok,
            f"{checked} witnesses within 1e-12 and their corruptions fail "
            "both checks",
        )


def test_criterion_7_spectral_radius(capsys):
    results = []
    for graph, want in ((single_edge(4), 1.0), (cycle(4), 2.0), (complete(4), 3.0)):
        est = power_iteration_rho(graph, tolerance=1e-10)
        monotone = all(
            lo1 >= lo0 and hi1 <= hi0
            for (lo0, hi0), (lo1, hi1) in zip(est.history, est.history[1:])
        )
        results.append(abs(est.rho - want) <= 1e-8 and monotone)
    # a multi-iteration run so bracket monotonicity is exercised nontrivially
    from hypersym import build_hypergraph

    tadpole = build_hypergraph(2, 4, [[1, 2], [1, 3], [2, 3], [3, 4]])
    est = power_iteration_rho(tadpole, tolerance=1e-10, max_iterations=100000)
    monotone = all(
        lo1 >= lo0 and hi1 <= hi0
        for (lo0, hi0), (lo1, hi1) in zip(est.history, est.history[1:])
    )
    results.append(est.iterations > 1 and monotone)
    ok = all(results)
    with capsys.disabled():
        _verdict(
            7,
            ok,
            "rho(edge)=1, rho(C4)=2, rho(K4)=3 within 1e-8 with monotone "
            "brackets every iteration",
        )
