"""Spectral symmetry of connected uniform hypergraphs.

A connected m-uniform hypergraph has rotation-symmetric spectrum of order
l (l dividing m) exactly when its vertices admit colors in Z_m summing to
m/l on every edge, i.e. when B x = (m/l) * 1 is solvable over Z_m for the
edge-vertex incidence matrix B. The cyclic index is the largest such l.
"""

from __future__ import annotations

from itertools import islice
from math import pi, sin
from typing import NamedTuple, Optional

from .errors import (
    DimensionMismatchError,
    DisconnectedError,
    InternalConsistencyError,
    ModulusMismatchError,
    ParameterError,
)
from .hypergraph import Hypergraph, is_connected
from .modular import _Checked, _eliminate


class _ColoringFields(NamedTuple):
    modulus: int
    values: tuple[int, ...]


class Coloring(_Checked, _ColoringFields):
    """A vertex map into Z_m, one value per vertex in index order."""

    __slots__ = ()

    def __new__(cls, modulus: int, values):
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        return super().__new__(cls, modulus, tuple(int(v) % modulus for v in values))


class SymmetryReport(NamedTuple):
    """Cyclic index plus per-divisor solvability evidence.

    `divisor_evidence` maps every divisor l of the uniformity to a witness
    coloring, or None when the corresponding system is unsolvable.
    """

    cyclic_index: int
    divisor_evidence: dict[int, Optional[Coloring]]


class SimilarityCertificate(NamedTuple):
    """Numerical witness that the coloring's diagonal phase matrix turns
    the tensor by exp(i 2 pi / l).

    `max_deviation` is the largest distance from 1 of
    exp(-i 2 pi / l) * d_i^-(m-1) * prod_{j in e, j != i} d_j, with
    d_v = exp(i 2 pi phi(v) / m), over all edges e and all leading
    vertices i; it is exactly 0.0 for a valid coloring.
    """

    modulus: int
    max_deviation: float


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def _check_order(graph: Hypergraph, symmetry_order: int, coloring: Coloring) -> int:
    """Return the uniformity m after checking that the coloring is a map
    from the vertices into Z_m and that l divides m."""
    m = graph.uniformity
    if coloring.modulus != m:
        raise ModulusMismatchError(
            f"coloring modulus {coloring.modulus} != uniformity {m}"
        )
    if len(coloring.values) != graph.vertex_count:
        raise DimensionMismatchError(
            f"coloring has {len(coloring.values)} values for "
            f"{graph.vertex_count} vertices"
        )
    if symmetry_order < 1 or m % symmetry_order:
        raise ParameterError(f"{symmetry_order} does not divide uniformity {m}")
    return m


def verify_coloring(graph: Hypergraph, coloring: Coloring, symmetry_order: int) -> bool:
    """True iff every edge's color sum is m/l mod m."""
    m = _check_order(graph, symmetry_order, coloring)
    # edges are 1-based; a leading 0 puts vertex v's color at index v
    return not any(_misses(graph.edges, (0, *coloring.values), m, m // symmetry_order))


def verify_similarity(
    graph: Hypergraph, coloring: Coloring, symmetry_order: int
) -> SimilarityCertificate:
    """Certify that the coloring's diagonal phase matrix turns the spectrum by 2 pi / l.

    Maps each color to the unit phase d_v = exp(i 2 pi phi(v) / m). As
    d_i^m = 1, the entry exp(-i 2 pi / l) * d_i^-(m-1) * prod_{j in e, j != i} d_j
    is exp(i 2 pi r / m) for every leading vertex i, where r is the edge's
    color sum minus m/l, mod m. Its distance from 1 is 2 sin(pi r / m), taken
    at min(r, m - r) so that the argument stays in (0, pi/2]: the maximum is
    exactly 0.0 when every edge sums to m/l, and positive otherwise.
    """
    m = _check_order(graph, symmetry_order, coloring)
    # edges are 1-based; a leading 0 puts vertex v's color at index v
    get, target = (0, *coloring.values).__getitem__, m // symmetry_order
    residues = {(sum(map(get, edge)) - target) % m for edge in graph.edges}
    return SimilarityCertificate(
        modulus=m,
        max_deviation=max((2 * sin(pi * min(r, m - r) / m) for r in residues if r), default=0.0),
    )


def _misses(rows, values, modulus: int, target: int):
    """The rows whose values sum to other than `target` mod `modulus`, in
    order and lazily. Rows are nonempty tuples, so `any` finds a miss."""
    target %= modulus
    get = values.__getitem__
    return (row for row in rows if sum(map(get, row)) % modulus != target)


def cyclic_index(graph: Hypergraph) -> SymmetryReport:
    """Largest l with rotation-symmetric spectrum, over all divisors of m.

    Every divisor l of m is decided and recorded from the proved
    B x = g * 1 of `_index_generator`: l is solvable exactly when g
    divides m/l, so divisor closure holds by construction and the index
    is m/g. Then u = (m/l)/g mod m/g gives u * g = m/l (mod m), so the
    witness u * x has B (u x) = (m/l) * 1 by linearity and reads no edge.
    """
    if not is_connected(graph):
        raise DisconnectedError("cyclic index requires a connected hypergraph")
    m = graph.uniformity
    g, x = _index_generator(graph, m)
    evidence: dict[int, Optional[Coloring]] = {}
    for ell in divisors(m):
        b = m // ell
        u = b // g % (m // g)
        evidence[ell] = None if b % g else Coloring(m, (u * v for v in x[1:]))
    return SymmetryReport(m // g, evidence)


def _index_generator(graph: Hypergraph, modulus: int) -> tuple[int, list[int]]:
    """(g, x) with B x = g * 1 over Z_q on every edge of a connected
    graph, where g divides q and b * 1 is in the span of the incidence B
    exactly for the multiples b of g; the index is q/g. x[0] is a zero
    slot.

    `_eliminate` on the incidence of an edge sample S gives g_S and x
    with B_S x = g_S * 1. When every edge of the graph sums to g_S under
    x, g = g_S: the ideal of the graph lies in that of S, so g_S divides
    g, and B x = g_S * 1 puts g_S in the graph's ideal, so g divides g_S.
    S starts as every max(1, k // 2n)-th edge, so it is every edge when
    k < 4n. The pass reads the edges once and stops after |S| misses:
    none proves x, otherwise the missed edges join S and the elimination
    runs again.
    """
    q = modulus
    edges = graph.edges
    n = graph.vertex_count
    sample = list(edges[:: max(1, len(edges) // (2 * n))])
    while True:
        g, x = _eliminate(q, n, sample)
        missed = list(islice(_misses(edges, x, q, g), len(sample)))
        if not missed:
            return g, x
        if len(sample) >= len(edges):
            raise InternalConsistencyError(
                f"all-ones walk over Z_{q} fails edge-sum verification"
            )
        sample += missed
