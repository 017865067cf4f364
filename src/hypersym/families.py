"""Hypergraph generators: the three-part counterexample family and test stock."""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import NamedTuple

from .errors import BudgetExceededError, InternalConsistencyError, ParameterError
from .hypergraph import Hypergraph, build_hypergraph
from .modular import _Checked
from .symmetry import Coloring

DEFAULT_EDGE_BUDGET = 10**6


class _NikiforovFields(NamedTuple):
    k: int
    size_a: int
    size_b: int
    size_c: int


class NikiforovParams(_Checked, _NikiforovFields):
    """Sizes of the three vertex classes A, B, C for blow-up parameter k.

    Class sizes must admit the four edge families: |A| >= 6k, |B| >= 6k,
    |C| >= 4k, hence n >= 16k.
    """

    __slots__ = ()

    def __new__(cls, k: int, size_a: int, size_b: int, size_c: int):
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        if size_a < 6 * k:
            raise ParameterError(f"|A| must be >= {6 * k}, got {size_a}")
        if size_b < 6 * k:
            raise ParameterError(f"|B| must be >= {6 * k}, got {size_b}")
        if size_c < 4 * k:
            raise ParameterError(f"|C| must be >= {4 * k}, got {size_c}")
        return super().__new__(cls, k, size_a, size_b, size_c)

    @property
    def vertex_count(self) -> int:
        return self.size_a + self.size_b + self.size_c


# Edge classes (left, right, i, j): the 4k-sets meeting class `left` in i*k
# vertices and class `right` in j*k; A, B, C are 0, 1, 2, as in `params[1:]`.
_EDGE_CLASSES = ((0, 2, 2, 2), (1, 2, 2, 2), (0, 1, 1, 3), (0, 1, 3, 1))


def _edge_count(params: NikiforovParams, cap: int) -> int:
    k, sizes = params.k, params[1:]
    return sum(
        _binomial_up_to(sizes[left], i * k, cap) * _binomial_up_to(sizes[right], j * k, cap)
        for left, right, i, j in _EDGE_CLASSES
    )


def _binomial_up_to(n: int, j: int, cap: int) -> int:
    """C(n, j), or the first of the rising C(n-j+i, i), i <= j, past `cap`."""
    j = min(j, n - j)
    value = 1
    for i in range(1, j + 1):
        value = value * (n - j + i) // i
        if value > cap:
            break
    return value


def nikiforov(
    params: NikiforovParams, budget: int = DEFAULT_EDGE_BUDGET
) -> Hypergraph:
    """The 4k-uniform hypergraph on A | B | C with four edge families.

    Vertices 1..|A| form A, the next |B| form B, the last |C| form C.
    Edges are all 4k-sets meeting (A, C) in (2k, 2k), (B, C) in (2k, 2k),
    (A, B) in (k, 3k), or (A, B) in (3k, k). Enumeration is exhaustive,
    so the projected edge count is checked against `budget` first.
    """
    if budget < 0:
        raise ParameterError(f"budget must be >= 0, got {budget}")
    # Each binomial stops once past the cap and is at least 1, so a count
    # at most the cap is exact; up to 10^18 it is printed in full.
    cap = max(budget, 10**18)
    expected = _edge_count(params, cap)
    if expected > budget:
        count = expected if expected <= cap else f"more than {cap}"
        raise BudgetExceededError(
            f"family has {count} edges, over the budget of {budget}"
        )
    k = params.k
    ends = list(accumulate(params[1:], initial=0))
    classes = [range(lo + 1, hi + 1) for lo, hi in zip(ends, ends[1:])]
    # A < B < C, so each edge is increasing, and the classes are disjoint
    edges = [
        picked_left + picked_right
        for left, right, i, j in _EDGE_CLASSES
        for picked_left in combinations(classes[left], i * k)
        for picked_right in combinations(classes[right], j * k)
    ]
    graph = Hypergraph(4 * k, params.vertex_count, tuple(sorted(edges)))
    if graph.edge_count != expected:
        raise InternalConsistencyError(
            f"family has {graph.edge_count} edges, formula gives {expected}"
        )
    return graph


def nikiforov_coloring(params: NikiforovParams) -> Coloring:
    """The classes-constant coloring (A -> 1, B -> 4k-1, C -> 0) mod 4k.

    Every edge of the family sums to 2k mod 4k, so this witnesses
    order-2 spectral symmetry.
    """
    k = params.k
    values = (
        [1] * params.size_a + [4 * k - 1] * params.size_b + [0] * params.size_c
    )
    return Coloring(4 * k, values)


def cycle(n: int) -> Hypergraph:
    """The cycle C_n as a 2-uniform hypergraph."""
    if n < 3:
        raise ParameterError(f"cycle needs >= 3 vertices, got {n}")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return build_hypergraph(2, n, edges)


def path(n: int) -> Hypergraph:
    """The path P_n on n vertices."""
    if n < 2:
        raise ParameterError(f"path needs >= 2 vertices, got {n}")
    return build_hypergraph(2, n, [(i, i + 1) for i in range(1, n)])


def complete(n: int) -> Hypergraph:
    """The complete graph K_n."""
    if n < 2:
        raise ParameterError(f"complete graph needs >= 2 vertices, got {n}")
    return build_hypergraph(2, n, combinations(range(1, n + 1), 2))


def single_edge(m: int) -> Hypergraph:
    """One m-uniform edge covering all of its m vertices."""
    if m < 2:
        raise ParameterError(f"edge size must be >= 2, got {m}")
    return build_hypergraph(m, m, [range(1, m + 1)])


# Each kind's maker and its size in edges, in closed form; single_edge
# is one edge of m vertices, so it counts as m.
_STOCK = {
    "cycle": (cycle, lambda n: n),
    "path": (path, lambda n: n - 1),
    "complete": (complete, lambda n: n * (n - 1) // 2),
    "single_edge": (single_edge, lambda m: m),
}


def stock(kind: str, size: int) -> Hypergraph:
    """Named test hypergraph: cycle, path, complete, or single_edge.

    The edge count is checked against `DEFAULT_EDGE_BUDGET` before
    anything is built.
    """
    try:
        maker, edge_count = _STOCK[kind]
    except KeyError:
        raise ParameterError(
            f"unknown kind {kind!r}, expected one of {sorted(_STOCK)}"
        ) from None
    if edge_count(size) > DEFAULT_EDGE_BUDGET:
        raise BudgetExceededError(
            f"{kind} {size} is over the budget of {DEFAULT_EDGE_BUDGET} edges"
        )
    return maker(size)
