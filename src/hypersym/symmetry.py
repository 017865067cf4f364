"""Spectral symmetry of connected uniform hypergraphs.

A connected m-uniform hypergraph has rotation-symmetric spectrum of order
l (l dividing m) exactly when its vertices admit colors in Z_m summing to
m/l on every edge, i.e. when B x = (m/l) * 1 is solvable over Z_m for the
edge-vertex incidence matrix B. The cyclic index is the largest such l.
"""

from __future__ import annotations

from itertools import islice, repeat
from math import gcd
from typing import NamedTuple, Optional

from .errors import (
    DimensionMismatchError,
    DisconnectedError,
    InternalConsistencyError,
    ModulusMismatchError,
    ParameterError,
)
from .hypergraph import Hypergraph, is_connected
from .modular import _Checked, _SpanBasis


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


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def _check_order(
    graph: Hypergraph, symmetry_order: int, coloring: Optional[Coloring] = None
) -> int:
    """Return the uniformity m after checking that l divides m and, when a
    coloring is given, that it is a map from the vertices into Z_m."""
    m = graph.uniformity
    if coloring is not None:
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
    return _edge_sums_hit(graph.edges, (0, *coloring.values), m, m // symmetry_order)


def _edge_sums_hit(rows, values, modulus: int, target: int) -> bool:
    """True iff the values indexed by each row sum to `target` mod `modulus`."""
    target %= modulus
    get = values.__getitem__
    return all(sum(map(get, row)) % modulus == target for row in rows)


def is_l_symmetric(graph: Hypergraph, symmetry_order: int) -> Optional[Coloring]:
    """Witness coloring if the spectrum is rotation-symmetric of order l.

    Decides solvability of B x = (m/l) * 1 over Z_m exactly; returns None
    only when no coloring exists. The witness of a solvable order l > 1
    comes from the span basis of the whole incidence, which is the walk's
    own when the sample is every edge and is built only then otherwise.
    """
    m = _check_order(graph, symmetry_order)
    if not is_connected(graph):
        raise DisconnectedError("spectral symmetry requires a connected hypergraph")
    g, basis = _index_generator(graph, m)
    if (m // symmetry_order) % g:
        return None
    if symmetry_order == 1:
        # the target is 0, whose witness is the zero coloring
        return Coloring(m, [0] * graph.vertex_count)
    if basis is None:
        basis = _SpanBasis(m, graph.vertex_count, graph.edges)
    return _witness(graph.edges, basis, symmetry_order)


def cyclic_index(graph: Hypergraph) -> SymmetryReport:
    """Largest l with rotation-symmetric spectrum, over all divisors of m.

    Every divisor l of m is decided and recorded: l is solvable exactly
    when the g of `_index_generator` divides m/l, so divisor closure
    holds by construction. Order 1 is the zero coloring. A solvable
    order's witness is its `express` solution on the span basis of the
    whole incidence: the walk's own when the sample is every edge, and
    otherwise built only when some order l > 1 is solvable.
    """
    if not is_connected(graph):
        raise DisconnectedError("cyclic index requires a connected hypergraph")
    m = graph.uniformity
    g, basis = _index_generator(graph, m)
    if basis is None and g < m:
        basis = _SpanBasis(m, graph.vertex_count, graph.edges)
    evidence = {1: Coloring(m, [0] * graph.vertex_count)}
    for ell in divisors(m)[1:]:
        evidence[ell] = None if (m // ell) % g else _witness(graph.edges, basis, ell)
    return SymmetryReport(m // g, evidence)


def _index_generator(
    graph: Hypergraph, modulus: int
) -> tuple[int, Optional[_SpanBasis]]:
    """The g with B x = b * 1 solvable over Z_q exactly for the multiples b
    of g, for the incidence B of a connected graph; the index is q/g.

    An all-ones `express` walk on the incidence of an edge sample S gives
    B_S x = a * 1. When every edge of the graph sums to a under x, g is
    gcd(a, q): the ideal of the graph lies in that of S, so g_S divides
    g, and B x = a * 1 puts a in the graph's ideal, so g divides
    gcd(a, q) = g_S. S starts as every max(1, k // 2n)-th edge, so it is
    every edge when k < 4n. When the pass fails, the first violated edges
    join S, at most |S| of them, and the walk runs again.

    When S is every edge in canonical order, the walk's basis is the span
    basis of the whole incidence and is returned with g for the witnesses;
    otherwise None is.
    """
    q = modulus
    edges = graph.edges
    n = graph.vertex_count
    step = max(1, len(edges) // (2 * n))
    sample = list(edges[::step])
    while True:
        basis = _SpanBasis(q, n, sample)
        a, x = basis.express(repeat(1))
        if _edge_sums_hit(edges, x, q, a):
            return gcd(a, q), basis if step == 1 else None
        size = len(sample)
        if size < len(edges):
            get = x.__getitem__
            violated = (e for e in edges if sum(map(get, e)) % q != a)
            sample.extend(islice(violated, size))
        if len(sample) == size:
            raise InternalConsistencyError(
                f"all-ones walk over Z_{q} fails edge-sum verification"
            )


def _witness(edges, basis: _SpanBasis, symmetry_order: int) -> Coloring:
    """The `express` solution of B x = (q/l) * 1 over Z_q, for an order
    l > 1 that `_index_generator` has marked solvable, checked by edge
    sums."""
    q = basis.modulus
    a, x = basis.express(repeat(q // symmetry_order))
    if a != 1:
        raise InternalConsistencyError(
            f"order {symmetry_order} over Z_{q} is in the generator's ideal "
            "but has no solution"
        )
    if not _edge_sums_hit(edges, x, q, q // symmetry_order):
        raise InternalConsistencyError(
            f"order {symmetry_order} witness over Z_{q} fails edge-sum verification"
        )
    return Coloring(q, x[1:])
