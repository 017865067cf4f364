"""Hypergraph generators: the three-part counterexample family and test stock."""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import BudgetExceededError, InternalConsistencyError, ParameterError
from .hypergraph import Hypergraph, build_hypergraph
from .symmetry import Coloring

DEFAULT_EDGE_BUDGET = 10**6


class _NikiforovFields(NamedTuple):
    k: int
    size_a: int
    size_b: int
    size_c: int


class NikiforovParams(_NikiforovFields):
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

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`, whose default skips `__new__`
        return cls(*iterable)

    @property
    def vertex_count(self) -> int:
        return self.size_a + self.size_b + self.size_c


def _edge_count(params: NikiforovParams, cap: int) -> int:
    k, a, b, c = params.k, params.size_a, params.size_b, params.size_c
    return (
        _binomial_up_to(a, 2 * k, cap) * _binomial_up_to(c, 2 * k, cap)
        + _binomial_up_to(b, 2 * k, cap) * _binomial_up_to(c, 2 * k, cap)
        + _binomial_up_to(a, k, cap) * _binomial_up_to(b, 3 * k, cap)
        + _binomial_up_to(a, 3 * k, cap) * _binomial_up_to(b, k, cap)
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
    a_set = range(1, params.size_a + 1)
    b_set = range(params.size_a + 1, params.size_a + params.size_b + 1)
    c_set = range(params.size_a + params.size_b + 1, params.vertex_count + 1)
    edges = []
    for left, right, i, j in (
        (a_set, c_set, 2 * k, 2 * k),
        (b_set, c_set, 2 * k, 2 * k),
        (a_set, b_set, k, 3 * k),
        (a_set, b_set, 3 * k, k),
    ):
        for picked_left in combinations(left, i):
            for picked_right in combinations(right, j):
                edges.append(picked_left + picked_right)
    graph = build_hypergraph(4 * k, params.vertex_count, edges)
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
