"""Generalized power hypergraphs and the blow-up symmetry check.

The power of a t-uniform hypergraph blows each vertex into an s-set and
pads each edge with fresh vertices up to uniformity m (no padding when
m = s*t). The central question handled here: does the cyclic index of the
power equal s times the cyclic index of the base?
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd
from typing import NamedTuple

from .errors import (
    BudgetExceededError,
    DisconnectedError,
    InternalConsistencyError,
    ParameterError,
)
from .families import DEFAULT_EDGE_BUDGET
from .hypergraph import Hypergraph, _increasing, is_connected
from .symmetry import Coloring, _index_generator, verify_coloring

# The most vertex entries (edges times uniformity) a power may list. Every
# base vertex lies in an edge, so n <= k*t and the power's n*s + k*(m - s*t)
# vertices are at most its k*m entries.
ENTRY_BUDGET = 16 * DEFAULT_EDGE_BUDGET


class PowerLayout(NamedTuple):
    """Block structure of a power hypergraph.

    `vertex_blocks[v-1]` is the s-set replacing base vertex v (the base
    vertex corresponds to its first member); `edge_blocks[j]` is the
    (m - t*s)-set padding the j-th base edge, empty when m = t*s.
    """

    base_uniformity: int
    blowup: int
    uniformity: int
    vertex_blocks: tuple[tuple[int, ...], ...]
    edge_blocks: tuple[tuple[int, ...], ...]


class ConjectureReport(NamedTuple):
    """Both sides of the product law for one base hypergraph and one s.

    `equality` records whether the power's cyclic index equals
    s * c(base); `characterization_solvable` records solvability of
    B x = (t / c(base)) * 1 over Z_{st}, which is equivalent by theory
    and is asserted to agree.
    """

    base_cyclic_index: int
    power_cyclic_index: int
    product: int
    equality: bool
    characterization_solvable: bool
    guaranteed_symmetry: int


def generalized_power(
    graph: Hypergraph, uniformity: int, blowup: int
) -> tuple[Hypergraph, PowerLayout]:
    """Blow each vertex into a `blowup`-set and pad edges to `uniformity`.

    Blocks are laid out base-vertex blocks first (contiguous, in base
    vertex order), then edge blocks in canonical edge order, so the
    construction is deterministic and reproducible. A base vertex in no
    edge would add only an isolated block, so such a base is refused
    first, and one with more than k*t vertices before any set is built.
    Then the power's edge entries, k*m, are counted: past `ENTRY_BUDGET`
    nothing is built.
    """
    t = graph.uniformity
    n, k = graph.vertex_count, graph.edge_count
    if n > k * t or len(set(chain.from_iterable(graph.edges))) < n:
        raise DisconnectedError("power requires every vertex to lie in an edge")
    _check_power_parameters(graph, uniformity, blowup)
    s = blowup
    m = uniformity
    if k * m > ENTRY_BUDGET:
        raise BudgetExceededError(
            f"power has {k * m} edge entries ({k} edges of {m} vertices), "
            f"over the budget of {ENTRY_BUDGET}"
        )
    pad = m - s * t
    vertex_blocks = tuple(
        tuple(range((v - 1) * s + 1, v * s + 1)) for v in range(1, n + 1)
    )
    base = n * s
    edge_blocks = tuple(
        tuple(range(base + j * pad + 1, base + (j + 1) * pad + 1)) for j in range(k)
    )
    # Blocks grow with the base vertex and padding comes last, so each
    # power edge is increasing and the base edge order carries over.
    block = ((), *vertex_blocks).__getitem__  # block(v) replaces base vertex v
    spread = map(chain.from_iterable, map(map, repeat(block), graph.edges))
    edges = tuple(map(tuple, map(chain, spread, edge_blocks)))
    if not _increasing(edges):
        raise InternalConsistencyError("power edges left canonical order")
    power = Hypergraph(m, n * s + k * pad, edges)
    layout = PowerLayout(t, s, m, vertex_blocks, edge_blocks)
    if pad == 0 and s > 1:
        # self-check: 1 on the first member of each block and 0 elsewhere
        # sums to t on every edge, a witness of order-s symmetry
        witness = Coloring(m, ([1] + [0] * (s - 1)) * n)
        if not verify_coloring(power, witness, s):
            raise InternalConsistencyError("blow-up lost its order-s witness")
    return power, layout


def power_cyclic_index_shortcut(
    graph: Hypergraph, uniformity: int, blowup: int
) -> int | None:
    """Cyclic index of the power without computation, when available.

    With uniformity strictly above blowup * t every power edge contains a
    degree-1 padding vertex, which forces the cyclic index to equal the
    uniformity. Returns None at the boundary m = s*t, where the caller
    must compute.
    """
    _check_power_parameters(graph, uniformity, blowup)
    if uniformity > blowup * graph.uniformity:
        return uniformity
    return None


def _check_power_parameters(graph: Hypergraph, uniformity: int, blowup: int) -> None:
    t = graph.uniformity
    if blowup < 1:
        raise ParameterError(f"blowup must be >= 1, got {blowup}")
    if uniformity < blowup * t:
        raise ParameterError(
            f"uniformity {uniformity} is below blowup * base uniformity {blowup * t}"
        )


def conjecture_check(graph: Hypergraph, blowup: int) -> ConjectureReport:
    """Compare c(power) against s * c(base) at uniformity m = s*t.

    The power is never built. Both indices come from the base incidence
    B, once over Z_t and once over Z_m: the power's incidence is B with
    every column repeated s times, which spans the same submodule, so
    c(power) is the largest l with B x = (m/l) * 1 solvable over Z_m.
    Over each modulus q the all-ones system of an edge sample, eliminated
    and proved by one edge-sum pass over every edge, gives the generator
    g dividing q with b * 1 in the span exactly for the multiples b of g,
    so the index is q/g (`symmetry._index_generator`); the system of the
    whole incidence is never eliminated. The characterization system
    B x = (t / c(base)) * 1 over Z_m has target g_t, so it is solvable
    exactly when g_m divides g_t, which is equivalent to equality.
    Theory-mandated divisibility relations are asserted before the
    report is returned.
    """
    if blowup < 2:
        raise ParameterError(f"blowup must be >= 2, got {blowup}")
    if not is_connected(graph):
        raise DisconnectedError("conjecture check requires a connected hypergraph")
    t = graph.uniformity
    m = blowup * t
    g_base, _ = _index_generator(graph, t)
    g_power, _ = _index_generator(graph, m)
    base_c = t // g_base
    power_c = m // g_power
    product = blowup * base_c
    guaranteed = blowup * base_c // gcd(blowup, base_c)
    report = ConjectureReport(
        base_cyclic_index=base_c,
        power_cyclic_index=power_c,
        product=product,
        equality=power_c == product,
        characterization_solvable=g_base % g_power == 0,
        guaranteed_symmetry=guaranteed,
    )
    _assert_report_invariants(report, blowup)
    return report


def _assert_report_invariants(report: ConjectureReport, blowup: int) -> None:
    checks = [
        (report.power_cyclic_index % blowup == 0, "s divides c(power)"),
        (
            report.power_cyclic_index % report.base_cyclic_index == 0,
            "c(base) divides c(power)",
        ),
        (report.product % report.power_cyclic_index == 0, "c(power) divides s*c(base)"),
        (
            report.power_cyclic_index % report.guaranteed_symmetry == 0,
            "lcm(s, c(base)) divides c(power)",
        ),
        (
            report.equality == report.characterization_solvable,
            "equality must match base-system solvability",
        ),
    ]
    for ok, name in checks:
        if not ok:
            raise InternalConsistencyError(f"report invariant failed: {name}")
