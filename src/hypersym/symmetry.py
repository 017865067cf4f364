"""Spectral symmetry of connected uniform hypergraphs.

A connected m-uniform hypergraph has rotation-symmetric spectrum of order
l (l dividing m) exactly when its vertices admit colors in Z_m summing to
m/l on every edge, i.e. when B x = (m/l) * 1 is solvable over Z_m for the
edge-vertex incidence matrix B. The cyclic index is the largest such l.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import Iterable, NamedTuple, Optional

from .errors import (
    DimensionMismatchError,
    DisconnectedError,
    InternalConsistencyError,
    ModulusMismatchError,
    ParameterError,
)
from .hypergraph import Hypergraph, is_connected
from .modular import _Checked, _SpanBasis, _SparseRows


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
    only when no coloring exists.
    """
    m = _check_order(graph, symmetry_order)
    if not is_connected(graph):
        raise DisconnectedError("spectral symmetry requires a connected hypergraph")
    [(g, basis)] = _index_generators(graph, (m,))
    if (m // symmetry_order) % g:
        return None
    return _witness(graph.edges, basis, symmetry_order)


def cyclic_index(graph: Hypergraph) -> SymmetryReport:
    """Largest l with rotation-symmetric spectrum, over all divisors of m.

    Every divisor l of m is decided and recorded: l is solvable exactly
    when the g of `_index_generators` divides m/l, so divisor closure
    holds by construction. A solvable order's witness is the `express`
    solution on the same basis (for l = 1, the zero vector).
    """
    if not is_connected(graph):
        raise DisconnectedError("cyclic index requires a connected hypergraph")
    m = graph.uniformity
    [(g, basis)] = _index_generators(graph, (m,))
    evidence = {
        ell: None if (m // ell) % g else _witness(graph.edges, basis, ell)
        for ell in divisors(m)
    }
    return SymmetryReport(m // g, evidence)


def _index_generators(
    graph: Hypergraph, moduli: Iterable[int]
) -> list[tuple[int, _SpanBasis]]:
    """(g, basis) per modulus q: the span basis of the incidence B over
    Z_q, and the g with B x = b * 1 solvable exactly for the multiples b
    of g, so the index is q/g. B is prepared once for all the moduli; on
    each basis one all-ones `express` walk gives B x = a * 1 with
    g = gcd(a, q), and x is checked by edge sums."""
    incidence = _SparseRows(graph.vertex_count, graph.edges)
    out = []
    for q in moduli:
        basis = _SpanBasis(q, incidence)
        a, x = basis.express(repeat(1))
        if not _edge_sums_hit(graph.edges, x, q, a):
            raise InternalConsistencyError(
                f"all-ones walk over Z_{q} fails edge-sum verification"
            )
        out.append((gcd(a, q), basis))
    return out


def _witness(edges, basis: _SpanBasis, symmetry_order: int) -> Coloring:
    """The `express` solution of B x = (q/l) * 1 over Z_q, for an order
    that `_index_generators` has marked solvable, checked by edge sums."""
    q = basis.modulus
    if symmetry_order == 1:
        # the target is 0, for which `express` returns the zero vector
        return Coloring(q, [0] * basis.width)
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
