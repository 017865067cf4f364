"""Adjacency-tensor numerics: the spectral radius by power iteration.

The adjacency tensor is never materialized (it has n^m entries). The
power iteration starts from the all-ones vector, which is constant on
the cells of any equitable partition, and each step keeps it so. So it
keeps one float per cell of the partition that colour refinement
reaches from the vertex degrees, and contracts the tensor through that
partition's table of edge types (the sorted tuples of member cells),
each with its edge count. The paper's three-class family and its
blow-ups have 2 cells and 2 types; on an input without symmetry every
cell is one vertex and the kernel is a loop over the edges. All of it
is plain Python, so no command loads an array library.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from math import inf, isfinite, isnan, nan, sqrt
from operator import add, mul
from typing import NamedTuple

from .errors import (
    ConvergenceError,
    DisconnectedError,
    InternalConsistencyError,
    ParameterError,
)
from .hypergraph import Hypergraph, is_connected

# Exact-arithmetic monotonicity of the Collatz-Wielandt bracket can wobble
# by rounding noise; violations beyond this relative slack are a bug.
_BRACKET_SLACK = 1e-9


class SpectralEstimate(NamedTuple):
    """Power-iteration result: radius bracket and positive eigenvector."""

    rho: float
    eigenvector: tuple[float, ...]
    iterations: int
    residual: float
    bracket: tuple[float, float]
    history: tuple[tuple[float, float], ...]


def _equitable_partition(
    graph: Hypergraph,
) -> tuple[list[int], list[int], dict[tuple[int, ...], int]]:
    """The partition colour refinement reaches from the vertex degrees.

    Returns (cell, sizes, types). cell[v] is the cell of vertex v, for
    v = 1..n (cell[0] is unused); cells are numbered in order of their
    first vertex, so when every cell is one vertex, cell v - 1 is {v}.
    sizes[c] is the number of vertices in cell c. The type of an edge is
    the sorted tuple of its members' cells; `types` maps each type to its
    number of edges, in order of its first edge.

    Each round gives every vertex the signature (its cell, the multiset
    of the types of its edges) and splits the cells by signature. The
    refinement stops after a round that splits no cell, or once every
    cell is one vertex: then all vertices of a cell lie in the same number
    of edges of each type, so the contraction of a vector that is
    constant on each cell is constant on each cell too. A round reads the
    edges in C-level passes: it numbers each edge's pattern (its members'
    cells in member order) and counts the (pattern, vertex) incidences;
    only the distinct patterns and counts are handled one at a time.
    Every round reads every edge, and a round may split just one cell: a
    path splits by distance from its ends, in about n/2 rounds.
    """
    n, m, edges = graph.vertex_count, graph.uniformity, graph.edges
    degree = Counter(chain.from_iterable(edges))
    cells = _Numbering()
    cell = [-1, *map(cells.__getitem__, map(degree.__getitem__, range(1, n + 1)))]
    while True:
        patterns = _Numbering()
        members = map(cell.__getitem__, chain.from_iterable(edges))
        # zip of m references to one iterator takes the cells m at a time
        pattern_of = list(map(patterns.__getitem__, zip(*[members] * m)))
        kinds = [tuple(sorted(pattern)) for pattern in patterns]
        if len(cells) == n:  # one vertex per cell splits no further
            break
        # one integer key per incidence: pattern * (n + 1) + vertex
        keys = chain.from_iterable(map(repeat, map(mul, pattern_of, repeat(n + 1)), repeat(m)))
        seen: list[Counter[tuple[int, ...]]] = [Counter() for _ in range(n + 1)]
        for key, count in Counter(map(add, keys, chain.from_iterable(edges))).items():
            pattern, v = divmod(key, n + 1)
            seen[v][kinds[pattern]] += count
        refined = _Numbering()
        signatures = zip(cell[1:], map(frozenset, map(Counter.items, seen[1:])))
        split = [-1, *map(refined.__getitem__, signatures)]
        if len(refined) == len(cells):
            break
        cell, cells = split, refined
    types: Counter[tuple[int, ...]] = Counter()
    for pattern, count in Counter(pattern_of).items():
        types[kinds[pattern]] += count
    sizes = [0] * len(cells)
    for c in cell[1:]:
        sizes[c] += 1
    return cell, sizes, types


class _Numbering(dict):
    """Gives each new key the next number, 0, 1, 2, ..., on first lookup."""

    def __missing__(self, key: object) -> int:
        self[key] = number = len(self)
        return number


def _contract(
    types: dict[tuple[int, ...], int], sizes: list[int], x: list[float]
) -> list[float]:
    """Contract the adjacency tensor with a cell-constant x in every slot but the first.

    x[c] is the value on cell c, and the result is the value on each cell.
    A vertex i sums, over the edges containing it, the product of x over
    the other members; the (m-1)! symmetric orderings cancel the 1/(m-1)!
    entry weight. Every vertex of cell C lies in the same number of edges
    of each type, so
    y_C = (1/|C|) * sum over types t of E_t * sum over the slots j of t
    in C of prefix_j * suffix_j, where E_t counts the edges of type t and
    prefix_j (suffix_j) is the product of x over the slots before
    (after) j. No division, so zeros in x are safe. When every cell is
    one vertex, each type is one edge and the result is the per-edge
    loop's bit for bit.
    """
    y = [0.0] * len(x)
    for kind, count in types.items():
        vals = list(map(x.__getitem__, kind))
        suffix = [1.0]  # right to left
        for v in vals[:0:-1]:
            suffix.append(suffix[-1] * v)
        prefix = count  # E_t times the running prefix product, left to right
        for c, v, rest in zip(kind, vals, reversed(suffix)):
            y[c] += prefix * rest
            prefix *= v
    return [total / size for total, size in zip(y, sizes)]


def power_iteration_rho(
    graph: Hypergraph, tolerance: float = 1e-10, max_iterations: int = 10000
) -> SpectralEstimate:
    """Spectral radius of a connected hypergraph by tensor power iteration.

    Starting from the all-ones vector, iterate
    x <- normalize((A x)^(1/(m-1))). Each step the ratios
    (A x)_i / x_i^(m-1) bracket the radius from both sides; the bracket
    shrinks monotonically and iteration stops once its width is within
    `tolerance`. The reported rho is the bracket midpoint.

    x stays constant on the cells of an equitable partition, so the
    iteration runs on one value per cell (`_equitable_partition`).

    Raises ConvergenceError (carrying the last bracket) if the width does
    not reach `tolerance` within `max_iterations`; this happens for some
    spectrally symmetric inputs, where the bracket stalls. It raises at
    once on a bracket that is not finite, as when x^(m-1) underflows at
    high uniformity.
    """
    if not (isfinite(tolerance) and tolerance > 0):
        raise ParameterError(f"tolerance must be positive and finite, got {tolerance}")
    if max_iterations < 1:
        raise ParameterError(f"max_iterations must be >= 1, got {max_iterations}")
    if not is_connected(graph):
        raise DisconnectedError("power iteration requires a connected hypergraph")
    m = graph.uniformity
    cell, sizes, types = _equitable_partition(graph)
    x = [1.0 / sqrt(graph.vertex_count)] * len(sizes)
    history: list[tuple[float, float]] = []
    for iteration in range(1, max_iterations + 1):
        y = _contract(types, sizes, x)
        # y/0 is inf and 0/0 is nan, as in IEEE arithmetic (Python raises)
        powers = [v ** (m - 1) for v in x]
        ratios = [a / p if p else inf if a else nan for a, p in zip(y, powers)]
        lo, hi = (nan, nan) if any(map(isnan, ratios)) else (min(ratios), max(ratios))
        if not (isfinite(lo) and isfinite(hi)):
            raise ConvergenceError(
                f"bracket [{lo}, {hi}] is not finite at iteration {iteration}: "
                f"x^{m - 1} leaves the float range",
                bracket=(lo, hi),
                iterations=iteration,
            )
        if history:
            prev_lo, prev_hi = history[-1]
            slack = _BRACKET_SLACK * max(1.0, abs(prev_hi))
            if lo < prev_lo - slack or hi > prev_hi + slack:
                raise InternalConsistencyError(
                    f"bracket widened: [{prev_lo}, {prev_hi}] -> [{lo}, {hi}]"
                )
            # Clamp rounding noise so the recorded history is monotone.
            lo, hi = max(lo, prev_lo), min(hi, prev_hi)
        history.append((lo, hi))
        if hi - lo <= tolerance:
            return SpectralEstimate(
                rho=(lo + hi) / 2,
                eigenvector=tuple(map(x.__getitem__, cell[1:])),
                iterations=iteration,
                residual=hi - lo,
                bracket=(lo, hi),
                history=tuple(history),
            )
        x = [a ** (1.0 / (m - 1)) for a in y]
        norm = sqrt(sum(size * v * v for size, v in zip(sizes, x)))
        x = [v / norm for v in x]
    lo, hi = history[-1]
    raise ConvergenceError(
        f"bracket width {hi - lo:.3e} above tolerance {tolerance:.3e} "
        f"after {max_iterations} iterations (bracket [{lo}, {hi}])",
        bracket=(lo, hi),
        iterations=max_iterations,
    )
