"""Uniform hypergraphs: validation, connectivity, incidence matrix.

Vertices are 1-based integer indices. Edges are stored as strictly sorted
tuples and the edge list is kept in lexicographic order, so equal
hypergraphs have equal representations.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter, lt
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DuplicateEdgeError,
    EdgeSizeError,
    InternalConsistencyError,
    ParameterError,
    RepeatedVertexError,
    VertexRangeError,
)


class Hypergraph(NamedTuple):
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
    sorted internally and the edge list sorted lexicographically. The
    edges are checked in whole-list passes (`_build_in_passes`); a list
    they reject is replayed in the given order through `_build_per_edge`,
    which raises the error of the first faulty edge.
    """
    given = list(map(tuple, edges))
    graph = _build_in_passes(uniformity, vertex_count, given.copy())
    if graph is None:
        _build_per_edge(uniformity, vertex_count, given)
        raise InternalConsistencyError(
            "whole-list edge checks rejected edges the per-edge rules accept"
        )
    return graph


def _build_in_passes(
    uniformity: int, vertex_count: int, rows: list[tuple[int, ...]]
) -> Hypergraph | None:
    """The hypergraph of `rows`, or None when a whole-list pass rejects them.

    The passes check the edge sizes, then each pair of neighbouring
    slots, which must increase strictly, so no vertex repeats (edges are
    sorted first if some edge is not increasing), then the least first
    and the greatest last vertex, then strict increase of the edge list,
    so no edge repeats (it is sorted first if it is not increasing).
    `rows` is sorted in place, and nothing loops over a header value.
    """
    if not 2 <= uniformity <= vertex_count:
        return None
    if rows:
        if set(map(len, rows)) != {uniformity}:
            return None
        if not _increasing_slots(rows, uniformity):
            # a block at a time, so the unsorted edges are not all held twice
            for i in range(0, len(rows), 1024):
                rows[i : i + 1024] = map(tuple, map(sorted, rows[i : i + 1024]))
            if not _increasing_slots(rows, uniformity):
                return None
        if min(map(itemgetter(0), rows)) < 1 or max(map(itemgetter(-1), rows)) > vertex_count:
            return None
        if not _increasing(rows):
            rows.sort()
            if not _increasing(rows):
                return None
    return Hypergraph(uniformity, vertex_count, tuple(rows))


def _increasing(items: list) -> bool:
    """True iff every item is below the next."""
    return all(map(lt, items, islice(items, 1, None)))


def _increasing_slots(rows: list[tuple[int, ...]], width: int) -> bool:
    """True iff slot j is below slot j + 1 in every row, for every j."""
    return all(
        all(map(lt, map(itemgetter(j), rows), map(itemgetter(j + 1), rows)))
        for j in range(width - 1)
    )


def _build_per_edge(
    uniformity: int, vertex_count: int, edges: Iterable[Sequence[int]]
) -> Hypergraph:
    """`build_hypergraph` one edge at a time; the only place its errors
    are written. Each edge is checked as it is drawn from `edges`, so a
    caller streaming them knows which edge an error is about."""
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
    so a huge `vertices` header costs nothing. Then union-find merges
    each edge's vertices; the graph is connected once n - 1 merges have
    happened, and the remaining edges are not read.
    """
    n = graph.vertex_count
    if n > graph.edge_count * (graph.uniformity - 1) + 1:
        return False
    parent = list(range(n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merges = 0
    for edge in graph.edges:
        if merges == n - 1:
            break
        root = find(edge[0])
        for v in edge[1:]:
            r = find(v)
            if r != root:
                parent[r] = root
                merges += 1
    return merges == n - 1


def has_isolated_vertex(graph: Hypergraph) -> bool:
    """True iff some vertex lies in no edge.

    k edges cover at most k*m vertices, so a larger vertex count answers
    before any per-vertex state is built.
    """
    n = graph.vertex_count
    if n > graph.edge_count * graph.uniformity:
        return True
    covered: set[int] = set()
    for edge in graph.edges:
        covered.update(edge)
        if len(covered) == n:
            return False
    return True


def incidence_matrix(graph: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Edge-by-vertex 0/1 rows in canonical order; entry (e, v) = 1 iff v lies in e."""
    rows = []
    for edge in graph.edges:
        row = [0] * graph.vertex_count
        for v in edge:
            row[v - 1] = 1
        rows.append(tuple(row))
    return tuple(rows)
