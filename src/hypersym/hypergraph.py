"""Uniform hypergraphs: validation, connectivity, incidence matrix.

Vertices are 1-based integer indices. Edges are stored as strictly sorted
tuples and the edge list is kept in lexicographic order, so equal
hypergraphs have equal representations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdgeError,
    EdgeSizeError,
    ParameterError,
    RepeatedVertexError,
    VertexRangeError,
)


@dataclass(frozen=True)
class Hypergraph:
    """An m-uniform hypergraph on vertices 1..vertex_count.

    Instances are immutable; build via :func:`build_hypergraph`, which
    canonicalizes and validates. `edges` is lexicographically sorted and
    each edge is a strictly increasing tuple of length `uniformity`.
    """

    uniformity: int
    vertex_count: int
    edges: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_hypergraph(
    uniformity: int, vertex_count: int, edges: Iterable[Sequence[int]]
) -> Hypergraph:
    """Validate and canonicalize a hypergraph description.

    Each edge must contain exactly `uniformity` distinct vertices in
    [1, vertex_count], and no vertex set may appear twice. Edges are
    sorted internally and the edge list sorted lexicographically. Each
    edge is checked as it is drawn from `edges`, so a caller streaming
    them knows which edge an error is about.
    """
    if uniformity < 2:
        raise ParameterError(f"uniformity must be >= 2, got {uniformity}")
    if vertex_count < uniformity:
        raise ParameterError(
            f"vertex_count must be >= uniformity, got {vertex_count} < {uniformity}"
        )
    canonical: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for raw in edges:
        edge = tuple(sorted(raw))
        if len(edge) != uniformity:
            raise EdgeSizeError(
                f"edge {tuple(raw)} has {len(raw)} vertices, expected {uniformity}"
            )
        if len(set(edge)) != uniformity:
            raise RepeatedVertexError(f"edge {tuple(raw)} repeats a vertex")
        if edge[0] < 1 or edge[-1] > vertex_count:
            raise VertexRangeError(
                f"edge {tuple(raw)} uses a vertex outside [1, {vertex_count}]"
            )
        if edge in seen:
            raise DuplicateEdgeError(f"edge {set(edge)} appears more than once")
        seen.add(edge)
        canonical.append(edge)
    canonical.sort()
    return Hypergraph(uniformity, vertex_count, tuple(canonical))


def is_connected(graph: Hypergraph) -> bool:
    """True iff every pair of vertices is joined by an alternating walk.

    Equivalent to the bipartite vertex-edge incidence graph being
    connected. Isolated vertices count as disconnected. The edges of a
    connected graph can be ordered so that each meets an earlier one and
    adds at most m - 1 new vertices, so it has at most k*(m-1) + 1
    vertices. That bound is tested before any per-vertex state is built,
    so a huge `vertices` header costs nothing.
    """
    n = graph.vertex_count
    if n > graph.edge_count * (graph.uniformity - 1) + 1:
        return False
    neighbors: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for edge in graph.edges:
        for v in edge:
            neighbors[v].update(edge)
    seen = {1}
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for u in neighbors[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == n


def incidence_matrix(graph: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Edge-by-vertex 0/1 rows in canonical order; entry (e, v) = 1 iff v lies in e."""
    rows = []
    for edge in graph.edges:
        row = [0] * graph.vertex_count
        for v in edge:
            row[v - 1] = 1
        rows.append(tuple(row))
    return tuple(rows)
