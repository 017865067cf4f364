"""Uniform hypergraphs: validation, connectivity, incidence matrix.

Vertices are 1-based integer indices. Edges are stored as strictly sorted
tuples and the edge list is kept in lexicographic order, so equal
hypergraphs have equal representations.
"""

from __future__ import annotations

from itertools import compress, islice
from operator import eq, itemgetter, lt
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
    sorted internally and the edge list sorted lexicographically. A
    rejected edge's error carries its 0-based position as `index`; see
    `_build`.
    """
    return _build(uniformity, vertex_count, list(map(tuple, edges)))


def _build(
    uniformity: int, vertex_count: int, rows: list[tuple[int, ...]]
) -> Hypergraph:
    """The hypergraph of `rows`, checked in whole-list passes.

    The passes check the parameters, the edge sizes, that no edge repeats
    a vertex and every vertex is in range, then strict increase of the
    edge list, so no edge repeats. A list they reject is replayed in the
    given order through `_build_per_edge`, which raises the error of the
    first faulty edge. When only the order check fails, the fault is a
    repeat, and the replay remembers only the edges equal to their
    successor in sorted order. Nothing loops over a header value.
    """
    repeated = None
    if 2 <= uniformity <= vertex_count and _vertices_pass(uniformity, vertex_count, rows):
        # the list order is checked on a sorted copy, so that a replay
        # reads the edges in the given order
        ordered = rows if _increasing(rows) else sorted(rows)
        if ordered is rows or _increasing(ordered):
            return Hypergraph(uniformity, vertex_count, tuple(ordered))
        repeated = set(compress(ordered, map(eq, ordered, islice(ordered, 1, None))))
        del ordered
    _build_per_edge(uniformity, vertex_count, rows, repeated)
    raise InternalConsistencyError(
        "whole-list edge checks rejected edges the per-edge rules accept"
    )


def _vertices_pass(
    uniformity: int, vertex_count: int, rows: list[tuple[int, ...]]
) -> bool:
    """True iff every row lists `uniformity` distinct vertices in
    [1, vertex_count]; every row is then increasing.

    The rows are checked a block at a time, and a block not all increasing
    is sorted first, so the unsorted rows are not all held twice. A block
    replaces its rows only once it has passed, so a replay prints the
    faulty row as given; a sorted row before it can only be a duplicate,
    whose message prints it sorted anyway.
    """
    if set(map(len, rows)) - {uniformity}:
        return False
    for i in range(0, len(rows), 1024):
        block = rows[i : i + 1024]
        if not _increasing_slots(block, uniformity):
            block = list(map(tuple, map(sorted, block)))
            if not _increasing_slots(block, uniformity):
                return False
        if min(map(itemgetter(0), block)) < 1 or max(map(itemgetter(-1), block)) > vertex_count:
            return False
        rows[i : i + 1024] = block
    return True


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
    uniformity: int, vertex_count: int, edges: Iterable[Sequence[int]], repeated=None
) -> Hypergraph:
    """`build_hypergraph` one edge at a time; the only place its errors
    are written. Each edge is checked as it is drawn from `edges`, and an
    error carries the edge's 0-based position as `index`. Given the set
    `repeated` of the only edges that repeat, it remembers just those,
    and it can then only raise."""
    if uniformity < 2:
        raise ParameterError(f"uniformity must be >= 2, got {uniformity}")
    if vertex_count < uniformity:
        raise ParameterError(
            f"vertex_count must be >= uniformity, got {vertex_count} < {uniformity}"
        )
    seen: set[tuple[int, ...]] = set()
    for index, raw in enumerate(edges):
        edge = tuple(sorted(raw))
        if len(edge) != uniformity:
            raise EdgeSizeError(
                f"edge {tuple(raw)} has {len(raw)} vertices, expected {uniformity}",
                index,
            )
        if len(set(edge)) != uniformity:
            raise RepeatedVertexError(f"edge {tuple(raw)} repeats a vertex", index)
        if edge[0] < 1 or edge[-1] > vertex_count:
            raise VertexRangeError(
                f"edge {tuple(raw)} uses a vertex outside [1, {vertex_count}]", index
            )
        if edge in seen:
            raise DuplicateEdgeError(f"edge {set(edge)} appears more than once", index)
        if repeated is None or edge in repeated:
            # a sorted tuple as given is kept, so the edges are not held twice
            seen.add(raw if edge == raw else edge)
    return Hypergraph(uniformity, vertex_count, tuple(sorted(seen)))


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


def incidence_matrix(graph: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Edge-by-vertex 0/1 rows in canonical order; entry (e, v) = 1 iff v lies in e."""
    rows = []
    for edge in graph.edges:
        row = [0] * graph.vertex_count
        for v in edge:
            row[v - 1] = 1
        rows.append(tuple(row))
    return tuple(rows)
