"""Exact linear algebra over the residue ring Z_m.

The solver decides A x = b (mod m) completely: it returns a witness
whenever one exists and the empty result only when none exists, for any
composite modulus. All arithmetic stays in [0, m), so entries never grow.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    ParameterError,
)


class _Checked:
    """First base of a record whose `__new__` checks its fields: `_replace`
    builds through `_make`, whose NamedTuple default skips `__new__`."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _ModMatrixFields(NamedTuple):
    modulus: int
    entries: tuple[tuple[int, ...], ...]


class ModMatrix(_Checked, _ModMatrixFields):
    """Dense matrix with entries reduced into [0, modulus)."""

    __slots__ = ()

    def __new__(cls, modulus: int, entries: Iterable[Sequence[int]]):
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        reduced = tuple(tuple(int(e) % modulus for e in row) for row in entries)
        if not reduced or not reduced[0]:
            raise ParameterError("matrix must have at least one row and one column")
        width = len(reduced[0])
        if any(len(row) != width for row in reduced):
            raise DimensionMismatchError("rows have unequal lengths")
        return super().__new__(cls, modulus, reduced)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _unit_for(a: int, m: int) -> int:
    """A unit u of Z_m with u*a = gcd(a, m) (mod m).

    The Bezout coefficient s of gcd(a, m) already satisfies s*a = g; it is
    shifted by multiples of m/g until coprime to m, which is guaranteed to
    happen within g steps because gcd(s, m/g) = 1.
    """
    g, s, _ = _xgcd(a, m)
    s %= m
    if gcd(s, m) == 1:
        return s
    step = m // g
    for _ in range(m):
        s = (s + step) % m
        if gcd(s, m) == 1:
            return s
    raise InternalConsistencyError(f"no unit lift for {a} mod {m}")


def _combine(s: int, row: dict, t: int, other: dict, q: int) -> dict:
    """The row s * row + t * other over Z_q, without its zero entries."""
    return {
        c: e
        for c in row.keys() | other.keys()
        if (e := (s * row.get(c, 0) + t * other.get(c, 0)) % q)
    }


def _eliminate(
    q: int,
    width: int,
    rows: Sequence[Sequence[int]],
    weights: Optional[Sequence[Sequence[int]]] = None,
    rhs: Optional[Sequence[int]] = None,
) -> tuple[int, list[int]]:
    """(g, x) with A x = g * rhs over Z_q, where g divides q and b * rhs
    is in the column span of A exactly for the multiples b of g; x[0] is
    a zero slot. So g = 1 exactly when A x = rhs is solvable.

    A is given as its nonzero entries: `rows[r]` lists the columns of row
    r, numbered from 1, and `weights[r]` its entries, each 1 when
    `weights` is None (the vertex tuple of each edge is then a row of the
    incidence); `rhs` is all ones when None. Callers pass program-built
    data; `ModMatrix` is the checked entry point for anything else.

    Each row of the system [A | -rhs] (x, b) = 0 is a dict {column:
    entry}, with column 0 holding -rhs. Columns are eliminated cheapest
    first: the one in the fewest pool rows, from a lazy heap. There the
    row with the fewest entries (then the lowest id) is the pivot, every
    other row folds into it by a 2x2 unimodular step, the pivot is scaled
    by a unit to p = gcd(entry, q) and leaves the pool, and its
    annihilator row (q/p) * pivot, zero at the column, joins the pool
    (Howell's construction). A column in no pool row is free, x = 0.
    The rows left read c * b = 0, so b is a multiple of g = lcm(q/gcd(c, q)).
    Back-substitution with b = g, in reverse order, needs p to divide the
    pivot's residual; the annihilator row, which the later columns and b
    satisfy, makes it so, and a residual off p is an internal error.
    """
    pool: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = defaultdict(set)  # column -> ids of its rows

    def refile(i: int, old: dict, new: dict) -> set[int]:
        """Move row i in `where` from the columns of `old` to those of
        `new`; return the columns whose rows changed."""
        changed = old.keys() ^ new.keys()
        for c in changed:
            (where[c].add if c in new else where[c].discard)(i)
        return changed

    for i, (cols, b) in enumerate(zip(rows, repeat(1) if rhs is None else rhs)):
        pool[i] = row = dict(zip(cols, repeat(1) if weights is None else weights[i]))
        if b % q:
            row[0] = -b % q
        refile(i, {}, row)
    heap = [(len(ids), c) for c, ids in where.items()]
    heapify(heap)
    pivots = []
    while heap:
        count, j = heappop(heap)
        ids = where[j]
        if not (j and ids and count == len(ids)):
            continue  # column 0, an eliminated column or a stale count
        pid = min(ids, key=lambda i: (len(pool[i]), i))
        pivot = pool.pop(pid)
        touched = refile(pid, pivot, {})
        a = pivot[j]
        for i in sorted(ids):
            row = pool[i]
            e = row[j]
            g, s, t = _xgcd(a, e) if e % a else (a, 1, 0)
            # det [[s, t], [-e/g, a/g]] = (s*a + t*e)/g = 1: invertible over
            # Z_q. The pivot's entry becomes g, the row's 0.
            pool[i] = new = _combine(a // g, row, -(e // g), pivot, q)
            if t:
                pivot = _combine(s, pivot, t, row, q)
            a = g
            touched |= refile(i, row, new)
        unit = _unit_for(a, q)
        p = unit * a % q
        pivot = _combine(unit, pivot, 0, {}, q)
        pivots.append((j, p, pivot))
        annihilator = _combine(q // p, pivot, 0, {}, q)
        if annihilator:
            i = len(rows) + len(pivots)
            pool[i] = annihilator
            touched |= refile(i, {}, annihilator)
        for c in touched:
            heappush(heap, (len(where[c]), c))
    g = lcm(*(q // gcd(row.get(0, 0), q) for row in pool.values()))
    x = [g % q] + [0] * width
    for j, p, pivot in reversed(pivots):
        r = sum(e * x[c] for c, e in pivot.items()) % q
        if r % p:
            raise InternalConsistencyError(
                f"back-substitution over Z_{q}: pivot {p} does not divide residual {r}"
            )
        x[j] = -r % q // p
    x[0] = 0
    return g, x


def solve_linear_mod(matrix: ModMatrix, rhs: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Solve A x = b (mod m), with b read mod m; return one witness or None.

    Complete for every modulus: `_eliminate` closes the rows of [A | -b]
    under annihilators, so the verdict "no solution" is exact, not a
    pivoting accident. Any returned witness is checked by substitution
    before being handed back.
    """
    if matrix.rows != len(rhs):
        raise DimensionMismatchError(
            f"matrix has {matrix.rows} rows, rhs has {len(rhs)} entries"
        )
    m = matrix.modulus
    b = tuple(int(e) % m for e in rhs)
    cols = [[j for j, a in enumerate(row, 1) if a] for row in matrix.entries]
    weights = [[row[j - 1] for j in c] for row, c in zip(matrix.entries, cols)]
    g, x = _eliminate(m, matrix.cols, cols, weights, b)
    if g != 1:
        return None
    # x[0] is the zero slot, so the 1-based columns index x directly
    image = tuple(sum(map(mul, ws, map(x.__getitem__, c))) % m for c, ws in zip(cols, weights))
    if image != b:
        raise InternalConsistencyError("solver produced a non-solution")
    return tuple(x[1:])
