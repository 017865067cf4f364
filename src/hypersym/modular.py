"""Exact linear algebra over the residue ring Z_m.

The solver decides A x = b (mod m) completely: it returns a witness
whenever one exists and the empty result only when none exists, for any
composite modulus. All arithmetic stays in [0, m), so entries never grow.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter, mul
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


class _SpanBasis:
    """Echelonized generating set for the column span of a k x n integer
    matrix A over Z_m.

    A is given as its nonzero entries: `rows[pos]` lists the columns of
    the nonzero entries of row `pos`, numbered from 1, and `weights[pos]`
    those entries. With `weights` None every listed entry is 1: `rows` is
    then the vertex tuple of each edge, the incidence matrix without its
    zeros. Callers pass program-built data; `ModMatrix` is the checked
    entry point for anything else.

    Built by row reduction over Z_m applied to the transposed matrix,
    with one extra rule that makes membership testing complete for
    composite moduli: whenever a pivot p is placed, the annihilator
    multiple (m // p) * row joins the working set. Those extra rows
    capture the combinations that vanish at the pivot but not later,
    exactly the ambiguity a greedy reduction must be able to absorb
    (Howell's canonical-form construction). So the pivot positions and
    each pivot value, the gcd with m of the entries there of the span
    vectors that are zero before it, are canonical; the pivot rows
    depend on the order the rows are folded in.

    A working row is a column combination A c, and it is stored only as
    its coefficient vector c: a leading slot 0 that is always 0 and then
    one entry per column, so a row of A indexes it directly, as
    `verify_coloring` indexes `(0, *values)`. The entry (A c)[pos] is
    evaluated when needed, so no length-k vector is ever built:
    `terms[pos]` maps c to its terms; a 0/1 row gathers its
    coefficients with one `itemgetter`, a weighted row multiplies each
    coefficient by its weight, so an entry a costs one product, not a
    copies of a column. Each working row is filed under its first
    nonzero position, found by evaluating the positions in order, and a
    row that is zero at every position is dropped. At the smallest
    filed position the first row becomes the pivot and every other row
    there folds into it, then is filed again from the next position.
    Each pivot keeps its coefficient vector, so reducing a target to
    zero also yields a solution x with A x = target.
    """

    def __init__(
        self,
        modulus: int,
        width: int,
        rows: Sequence[Sequence[int]],
        weights: Optional[Sequence[Sequence[int]]] = None,
    ):
        m = modulus
        self.modulus = m
        self.width = width
        k = len(rows)
        if weights is None:
            self.terms = [itemgetter(*cols) for cols in rows]
        else:
            self.terms = [
                lambda coef, cols=cols, ws=ws: map(mul, ws, map(coef.__getitem__, cols))
                for cols, ws in zip(rows, weights)
            ]
        # Working rows by first nonzero position: (entry there, coefficients).
        pending: dict[int, list[tuple[int, list[int]]]] = {}

        def add(coef: list[int], start: int) -> None:
            pos, value = self._scan(coef, start)
            if pos < k:
                pending.setdefault(pos, []).append((value, coef))

        for j in range(1, width + 1):
            coef = [0] * (width + 1)
            coef[j] = 1
            add(coef, 0)
        self.pivots: dict[int, tuple[int, list[int]]] = {}
        while pending:
            pos = min(pending)
            (a, pcoef), *rest = pending.pop(pos)
            for c, coef in rest:
                g, s, t = _xgcd(a, c)
                u, v = a // g, c // g
                # det [[s, t], [-v, u]] = (s*a + t*c)/g = 1: invertible over Z_m.
                # The pivot's entry becomes s*a + t*c = g, the row's u*c - v*a = 0.
                pcoef, coef = (
                    [(s * x + t * y) % m for x, y in zip(pcoef, coef)],
                    [(u * y - v * x) % m for x, y in zip(pcoef, coef)],
                )
                a = g
                add(coef, pos + 1)
            unit = _unit_for(a, m)
            pcoef = [(unit * x) % m for x in pcoef]
            p = (unit * a) % m
            self.pivots[pos] = (p, pcoef)
            # A unit pivot's annihilator row is the zero vector, which the
            # scan would evaluate at every later position to drop.
            acoef = [(m // p * x) % m for x in pcoef]
            if any(acoef):
                add(acoef, pos + 1)

    def _scan(self, coef: list[int], start: int) -> tuple[int, int]:
        """First position >= start where A coef is nonzero, with its entry;
        (k, 0) when there is none. The positions are evaluated in order,
        for 0/1 and weighted rows alike."""
        m = self.modulus
        terms = self.terms
        for pos in range(start, len(terms)):
            value = sum(terms[pos](coef)) % m
            if value:
                return pos, value
        return len(terms), 0

    def express(self, target: Iterable[int]) -> tuple[int, list[int]]:
        """(a, x) with A x = a * target (mod m); x[0] is the zero slot.

        The b with b * target in the span are exactly the multiples of
        g, a divisor of m, and a is g itself, or 0 when g = m: a = 1
        exactly when the target is in the column span.

        One walk over the positions: the residual at `pos` is
        a * target[pos] - (A x)[pos] for the current a and x, and a pivot
        placed at `pos` is zero before it, so clearing `pos` keeps every
        earlier position clear. At a residual r that the pivot p (m where
        there is none) does not divide, a and x are first multiplied by
        u = p / gcd(r, p), the least factor that makes u * r a multiple
        of p. The basis is annihilator-closed, so a vector of the span
        that is zero before `pos` has its entry there in p * Z_m. As a
        starts at 1 and divides g, c = g / a times the residual is such a
        vector, so u divides c and a * u still divides g: it never wraps
        mod m, except to 0 when a * u = m = g. So each factor is forced,
        and the final a is g, the generator of the ideal. A target in the span
        gives a residual in the span, so it is never scaled.
        """
        m = self.modulus
        a = 1
        x = [0] * (self.width + 1)
        for pos, (want, terms) in enumerate(zip(target, self.terms)):
            r = (a * want - sum(terms(x))) % m
            if not r:
                continue
            p, pcoef = self.pivots.get(pos, (m, None))
            if r % p:
                u = p // gcd(r, p)
                a = a * u % m
                x = [v * u % m for v in x]
                r = r * u % m
            if r:
                lam = r // p
                x = [(v + lam * b) % m for v, b in zip(x, pcoef)]
        return a, x


def solve_linear_mod(matrix: ModMatrix, rhs: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Solve A x = b (mod m), with b read mod m; return one witness or None.

    Complete for every modulus: b is reduced against an annihilator-closed
    echelon basis of the column span of A, so the verdict "no solution"
    is exact, not a pivoting accident. Any returned witness is checked by
    substitution before being handed back.
    """
    if matrix.rows != len(rhs):
        raise DimensionMismatchError(
            f"matrix has {matrix.rows} rows, rhs has {len(rhs)} entries"
        )
    m = matrix.modulus
    b = tuple(int(e) % m for e in rhs)
    cols = [[j for j, a in enumerate(row, 1) if a] for row in matrix.entries]
    weights = [[row[j - 1] for j in c] for row, c in zip(matrix.entries, cols)]
    a, x = _SpanBasis(m, matrix.cols, cols, weights).express(b)
    if a != 1:
        return None
    # x[0] is the zero slot, so the 1-based columns index x directly
    image = tuple(sum(map(mul, ws, map(x.__getitem__, c))) % m for c, ws in zip(cols, weights))
    if image != b:
        raise InternalConsistencyError("solver produced a non-solution")
    return tuple(x[1:])
