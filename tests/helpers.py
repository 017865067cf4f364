"""Shared oracles and random-instance generators for the test suite.

Oracles here are deliberately independent of the library code paths they
check: solvability by exhaustive enumeration, connectivity by transitive
closure, tensor contraction by full index-tuple summation. The per-edge
loops that the spectral array kernels replaced are kept here too, as
oracles for the plain-Python kernels (bit-exact where the arithmetic is
the same), with the power iteration on every vertex that the
equitable-partition quotient replaced, and so is a dense-vector span
basis of the transposed matrix, which shares no code path with
`modular._eliminate`. Its `express` is the plain membership query, None
off the span. The per-divisor route, one query per divisor on that
basis, is the oracle for the sampled elimination that
`symmetry._index_generator` runs per modulus. The streaming reader that
the whole-list passes replaced is the oracle for `parse_hypergraph`.
The dense product `mat_vec_mod`, which checks the solver's witnesses,
the block-constant and single-member lifts, the uncapped edge count of
the three-class family and `apply_adjacency`, the contraction kernel on
a graph with every vertex its own cell, live here because only the
tests use them. `two_cell_rho` is the exact spectral radius of a graph
whose degrees give two equitable cells, from per-type edge counts in
`decimal`, not from `_contract`. `CountedEdges` counts the passes a
function makes over a graph's edges.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from math import gcd

import numpy as np

from hypersym import (
    Coloring,
    Hypergraph,
    NikiforovParams,
    PowerLayout,
    SymmetryReport,
    build_hypergraph,
    divisors,
    incidence_matrix,
)
from hypersym.errors import FileFormatError, HypergraphError, ParameterError
from hypersym.fileio import _header_value, _significant_lines
from hypersym.hypergraph import _build_per_edge
from hypersym.modular import _unit_for, _xgcd
from hypersym.spectral import _contract


def mat_vec_mod(matrix, vector) -> tuple[int, ...]:
    """Dense product A x reduced mod m, one row of `matrix` at a time."""
    m = matrix.modulus
    return tuple(sum(a * int(v) for a, v in zip(row, vector)) % m for row in matrix.entries)


def enumeration_solvable(entries, rhs, modulus) -> bool:
    """Decide A x = b (mod m) by trying every vector in Z_m^cols."""
    rows = len(entries)
    cols = len(entries[0])
    total = modulus**cols
    digits = (np.arange(total)[:, None] // (modulus ** np.arange(cols))) % modulus
    products = (digits @ np.array(entries, dtype=np.int64).T) % modulus
    return bool(np.any(np.all(products == np.array(rhs), axis=1)))


def enumeration_symmetric(graph: Hypergraph, ell: int) -> bool:
    """Search all colorings of a small hypergraph for an order-ell witness."""
    m = graph.uniformity
    target = (m // ell) % m
    for values in itertools.product(range(m), repeat=graph.vertex_count):
        if all(sum(values[v - 1] for v in e) % m == target for e in graph.edges):
            return True
    return False


def closure_connected(graph: Hypergraph) -> bool:
    """Connectivity by brute-force transitive closure of co-occurrence."""
    n = graph.vertex_count
    reach = [[i == j for j in range(n)] for i in range(n)]
    for edge in graph.edges:
        for u in edge:
            for v in edge:
                reach[u - 1][v - 1] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return all(all(row) for row in reach)


def adjacency_bruteforce(graph: Hypergraph, x) -> np.ndarray:
    """Tensor contraction by summing over every index tuple with weight."""
    n, m = graph.vertex_count, graph.uniformity
    edge_sets = {frozenset(e) for e in graph.edges}
    weight = 1.0 / math.factorial(m - 1)
    x = np.asarray(x, dtype=float)
    out = np.zeros(n)
    for i in range(1, n + 1):
        total = 0.0
        for tup in itertools.product(range(1, n + 1), repeat=m - 1):
            members = (i,) + tup
            if len(set(members)) == m and frozenset(members) in edge_sets:
                total += weight * math.prod(x[j - 1] for j in tup)
        out[i - 1] = total
    return out


def apply_adjacency(graph: Hypergraph, x) -> np.ndarray:
    """The library's contraction kernel on a graph and a float64 vector,
    with every vertex its own cell: each edge is its own type."""
    types = {tuple(v - 1 for v in edge): 1 for edge in graph.edges}
    y = _contract(types, [1] * graph.vertex_count, [float(v) for v in x])
    return np.array(y)


def parse_hypergraph_loop(text: str) -> Hypergraph:
    """`fileio.parse_hypergraph` one edge line at a time: each line is
    converted and handed to the builder's per-edge rules as it is read,
    so an error is about the line read last, or about the headers when
    no edge line has been read yet. The uniformity is checked by the same
    rules as soon as its line is read."""
    lines = _significant_lines(text.splitlines())
    try:
        number, line = next(lines)
    except StopIteration:
        raise FileFormatError("empty file, expected 'uniform <m>' header", 1)
    uniformity = _header_value(line, number, "uniform")
    try:
        # a vertex count the uniformity cannot fail, so only it is checked
        _build_per_edge(uniformity, max(uniformity, 2), ())
    except ParameterError as err:
        raise FileFormatError(str(err), number) from err
    try:
        number, line = next(lines)
    except StopIteration:
        raise FileFormatError("missing 'vertices <n>' line", number)
    vertex_count = _header_value(line, number, "vertices")

    def edges():
        nonlocal number
        for number, line in lines:
            try:
                yield tuple(map(int, line.split()))
            except ValueError:
                raise FileFormatError(f"edge line is not all integers: {line!r}", number)

    try:
        return _build_per_edge(uniformity, vertex_count, edges())
    except (HypergraphError, ParameterError) as err:
        raise FileFormatError(str(err), number) from err


def contract_loop(edges: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """The tensor contraction one edge at a time, by prefix and suffix
    products, on a (k, m) array of 0-based edge members."""
    out = np.zeros(n)
    for idx in edges:
        vals = x[idx]
        prefix = np.concatenate(([1], np.cumprod(vals[:-1])))
        suffix = np.concatenate((np.cumprod(vals[:0:-1])[::-1], [1]))
        out[idx] += prefix * suffix
    return out


def apply_adjacency_loop(graph: Hypergraph, x) -> np.ndarray:
    """Tensor contraction one edge at a time, by prefix and suffix products."""
    edges = np.array(graph.edges, dtype=np.intp).reshape(graph.edge_count, graph.uniformity)
    return contract_loop(edges - 1, np.asarray(x, dtype=np.float64), graph.vertex_count)


def power_iteration_loop(graph: Hypergraph, tolerance: float, max_iterations: int = 10000):
    """`power_iteration_rho` on every vertex, with the per-edge contraction:
    (rho, residual, iterations), or None if the bracket stays wider than
    `tolerance`."""
    m, n = graph.uniformity, graph.vertex_count
    edges = np.array(graph.edges, dtype=np.intp).reshape(graph.edge_count, m) - 1
    x = np.full(n, 1.0 / math.sqrt(n))
    lo, hi = -math.inf, math.inf
    for iteration in range(1, max_iterations + 1):
        y = contract_loop(edges, x, n)
        ratios = y / x ** (m - 1)
        lo, hi = max(lo, float(ratios.min())), min(hi, float(ratios.max()))
        if hi - lo <= tolerance:
            return (lo + hi) / 2, hi - lo, iteration
        x = y ** (1.0 / (m - 1))
        x /= np.linalg.norm(x)
    return None


def two_cell_rho(graph: Hypergraph, digits: int = 60) -> Decimal:
    """Spectral radius of a graph whose vertex degrees give two equitable
    cells, from the 2-cell quotient in `digits`-digit decimal arithmetic.

    Cell 0 holds the vertices of vertex 1's degree. E_j counts the edges
    with j members in cell 1. With x = (1, r) on the cells, the tensor
    contraction is y_0(r) = sum_j E_j (m - j) r^j / |C_0| on cell 0 and
    y_1(r) = sum_j E_j j r^(j-1) / |C_1| on cell 1, so x is an eigenvector
    exactly when y_1(r) = y_0(r) r^(m-1), and then rho = y_0(r). A
    connected hypergraph has one positive eigenvector, so that equation
    has one positive root; bisection finds it.
    """
    m = graph.uniformity
    degree = Counter(itertools.chain.from_iterable(graph.edges))
    assert len(set(degree.values())) == 2, "the degrees give other than 2 cells"
    in_one = [False] + [degree[v] != degree[1] for v in range(1, graph.vertex_count + 1)]
    # equitable: every vertex of a cell lies in as many edges of each type
    seen = [Counter() for _ in in_one]
    kinds = Counter()
    for edge in graph.edges:
        j = sum(in_one[v] for v in edge)
        kinds[j] += 1
        for v in edge:
            seen[v][j] += 1
    for cell in (False, True):
        counts = {frozenset(seen[v].items()) for v in range(1, len(in_one)) if in_one[v] == cell}
        assert len(counts) == 1, "the degree cells are not equitable"
    sizes = Counter(in_one[1:])
    with localcontext() as context:
        context.prec = digits

        def y(r: Decimal) -> tuple[Decimal, Decimal]:
            y0 = sum(count * (m - j) * r**j for j, count in kinds.items()) / sizes[False]
            y1 = sum(count * j * r ** (j - 1) for j, count in kinds.items() if j) / sizes[True]
            return y0, y1

        def above(r: Decimal) -> bool:  # r lies past the root
            y0, y1 = y(r)
            return y1 < y0 * r ** (m - 1)

        lo, hi = Decimal(1), Decimal(1)
        while above(lo):
            lo /= 2
        while not above(hi):
            hi *= 2
        for _ in range(4 * digits):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        return +y((lo + hi) / 2)[0]


def similarity_deviation_loop(graph: Hypergraph, coloring, symmetry_order: int) -> float:
    """Similarity-certificate deviation one edge and one slot at a time."""
    m = graph.uniformity
    phases = np.exp(2j * math.pi * np.array(coloring.values) / m)
    rotation = complex(np.exp(2j * math.pi / symmetry_order))
    max_deviation = 0.0
    for edge in graph.edges:
        d = phases[np.array(edge) - 1]
        full = d.prod()
        for i in range(m):
            value = full / d[i] * d[i] ** (-(m - 1)) / rotation
            max_deviation = max(max_deviation, abs(value - 1.0))
    return max_deviation


class CountedEdges(tuple):
    """An edge tuple that counts the loops over it."""

    reads = 0

    def __iter__(self):
        CountedEdges.reads += 1
        return super().__iter__()


def lift_block_constant(layout: PowerLayout, base: Coloring) -> Coloring:
    """Extend a base coloring to the power, constant on each vertex block.

    Takes colors mod t and reads them mod m = layout.uniformity; padding
    vertices get 0. An edge-sum witness for order l on the base lifts to
    one for order l on the power this way.
    """
    assert base.modulus == layout.base_uniformity
    total = len(layout.vertex_blocks) * layout.blowup + sum(
        len(b) for b in layout.edge_blocks
    )
    values = [0] * total
    for block, value in zip(layout.vertex_blocks, base.values):
        for u in block:
            values[u - 1] = value
    return Coloring(layout.uniformity, values)


def lift_single_member(layout: PowerLayout, base: Coloring) -> Coloring:
    """Extend a base coloring, placing each value on one block member only.

    Takes colors mod m = layout.uniformity; the first member of each
    vertex block carries the base value, every other new vertex gets 0.
    Edge sums of the power then equal the base edge sums.
    """
    assert base.modulus == layout.uniformity
    assert len(base.values) == len(layout.vertex_blocks)
    total = len(layout.vertex_blocks) * layout.blowup + sum(
        len(b) for b in layout.edge_blocks
    )
    values = [0] * total
    for block, value in zip(layout.vertex_blocks, base.values):
        values[block[0] - 1] = value
    return Coloring(layout.uniformity, values)


def nikiforov_edge_count(params: NikiforovParams) -> int:
    """Exact edge count of the four intersection families, uncapped."""
    k, a, b, c = params.k, params.size_a, params.size_b, params.size_c
    return (
        math.comb(a, 2 * k) * math.comb(c, 2 * k)
        + math.comb(b, 2 * k) * math.comb(c, 2 * k)
        + math.comb(a, k) * math.comb(b, 3 * k)
        + math.comb(a, 3 * k) * math.comb(b, k)
    )


def random_hypergraph(rng: random.Random, t: int, n_max: int = 8) -> Hypergraph:
    """Uniform-at-random edge subset; may be disconnected."""
    n = rng.randint(max(t, 2), n_max)
    pool = list(itertools.combinations(range(1, n + 1), t))
    count = rng.randint(1, min(len(pool), 2 * n))
    return build_hypergraph(t, n, rng.sample(pool, count))


def random_connected_hypergraph(
    rng: random.Random, t: int, n_max: int = 8
) -> Hypergraph:
    """Connected t-uniform hypergraph: merge components, then add extras."""
    n = rng.randint(max(t, 2), n_max)
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges: set[tuple[int, ...]] = set()
    roots = {find(v) for v in range(1, n + 1)}
    while len(roots) > 1:
        a, b = rng.sample(sorted(roots), 2)
        members = {a, b}
        while len(members) < t:
            members.add(rng.randint(1, n))
        edges.add(tuple(sorted(members)))
        for v in members:
            parent[find(v)] = find(a)
        roots = {find(v) for v in range(1, n + 1)}
    pool = [e for e in itertools.combinations(range(1, n + 1), t) if e not in edges]
    extras = rng.randint(0, min(len(pool), n))
    edges.update(rng.sample(pool, extras))
    return build_hypergraph(t, n, edges)


def random_connected_bipartite(rng: random.Random, n_max: int = 8) -> Hypergraph:
    """Connected bipartite 2-uniform graph with parts [1..p] and [p+1..n]."""
    n = rng.randint(2, n_max)
    p = rng.randint(1, n - 1)
    left = list(range(1, p + 1))
    right = list(range(p + 1, n + 1))
    edges = set()
    # star out of the first left vertex, then hook up remaining left vertices
    for r in right:
        edges.add((left[0], r))
    for l in left[1:]:
        edges.add((l, rng.choice(right)))
    pool = [
        (l, r) for l in left for r in right if (l, r) not in edges
    ]
    extras = rng.randint(0, min(len(pool), n))
    edges.update(rng.sample(pool, extras))
    return build_hypergraph(2, n, edges)


def is_bipartite_bfs(graph: Hypergraph) -> bool:
    """Two-color a connected 2-uniform graph by breadth-first search."""
    assert graph.uniformity == 2
    color = {1: 0}
    queue = [1]
    adj: dict[int, list[int]] = {v: [] for v in range(1, graph.vertex_count + 1)}
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    while queue:
        v = queue.pop()
        for u in adj[v]:
            if u not in color:
                color[u] = 1 - color[v]
                queue.append(u)
            elif color[u] == color[v]:
                return False
    return True


class DenseSpanBasis:
    """An echelon basis of the column span of A over Z_m, with every
    working row a full length-k vector, the column of A it is, and its
    coefficients.

    The transposed route, independent of `hypersym.modular._eliminate`,
    which eliminates the rows of [A | -b] themselves: here the columns of
    A are reduced position by position. At each position the row with the
    least gcd of its entry with m, then the lowest slot, is swapped into
    place as the pivot, and the later rows fold into it by 2x2 unimodular
    transforms; each pivot adds its annihilator row (m/p) * pivot, so
    `express` decides membership exactly for composite m (Howell's
    construction). Takes the dense rows of A, entries in [0, m).
    """

    def __init__(self, modulus, rows):
        m = modulus
        k, n = len(rows), len(rows[0])
        self.modulus = m
        self.length = k
        self.width = n
        work = []
        for j in range(n):
            vec = [row[j] for row in rows]
            coeff = [0] * n
            coeff[j] = 1
            work.append((vec, coeff))
        placed = 0
        self.pivots = {}
        for pos in range(k):
            cand = [i for i in range(placed, len(work)) if work[i][0][pos]]
            if not cand:
                continue
            best = min(cand, key=lambda i: (gcd(work[i][0][pos], m), i))
            work[placed], work[best] = work[best], work[placed]
            pvec, pcoef = work[placed]
            for i in range(placed + 1, len(work)):
                vec, coef = work[i]
                c = vec[pos]
                if not c:
                    continue
                a = pvec[pos]
                g, s, t = _xgcd(a, c)
                u, v = a // g, c // g
                pvec, vec = (
                    [(s * x + t * y) % m for x, y in zip(pvec, vec)],
                    [(u * y - v * x) % m for x, y in zip(pvec, vec)],
                )
                pcoef, coef = (
                    [(s * x + t * y) % m for x, y in zip(pcoef, coef)],
                    [(u * y - v * x) % m for x, y in zip(pcoef, coef)],
                )
                work[i] = (vec, coef)
            unit = _unit_for(pvec[pos], m)
            pvec = [(unit * x) % m for x in pvec]
            pcoef = [(unit * x) % m for x in pcoef]
            work[placed] = (pvec, pcoef)
            p = pvec[pos]
            ann = m // p
            avec = [(ann * x) % m for x in pvec]
            if any(avec):
                work.append((avec, [(ann * x) % m for x in pcoef]))
            self.pivots[pos] = (p, pvec, pcoef)
            placed += 1

    def express(self, target):
        m = self.modulus
        residual = [int(e) % m for e in target]
        x = [0] * self.width
        for pos in range(self.length):
            r = residual[pos]
            hit = self.pivots.get(pos)
            if hit is None:
                if r:
                    return None
                continue
            p, pvec, pcoef = hit
            if r % p:
                return None
            lam = r // p
            if lam:
                residual = [(a - lam * b) % m for a, b in zip(residual, pvec)]
                x = [(a + lam * b) % m for a, b in zip(x, pcoef)]
        assert not any(residual), "reduction left a nonzero residual"
        return x


def per_divisor_report(graph: Hypergraph, modulus: int) -> SymmetryReport:
    """Every divisor l of q decided by its own `express` call: B x = (q/l) * 1.

    One dense span basis of the incidence B over Z_q, one `express` call
    per divisor, each witness checked by edge sums and the report checked
    for divisor closure; `cyclic_index`, which scales one sampled
    elimination's solution for every solvable divisor, must give the same
    verdicts when q is the uniformity, though its witnesses may differ.
    """
    q = modulus
    basis = DenseSpanBasis(q, incidence_matrix(graph))
    evidence = {}
    for ell in divisors(q):
        x = basis.express([q // ell] * graph.edge_count)
        if x is not None:
            # x[v - 1] is the color of vertex v
            assert all(sum(x[v - 1] for v in e) % q == (q // ell) % q for e in graph.edges)
        evidence[ell] = None if x is None else Coloring(q, x)
    solvable = [ell for ell, witness in evidence.items() if witness is not None]
    for ell in solvable:
        assert all(evidence[d] is not None for d in divisors(ell))
    assert evidence[1] is not None
    return SymmetryReport(max(solvable), evidence)
