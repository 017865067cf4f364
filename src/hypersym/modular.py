"""Exact linear algebra over the residue ring Z_m.

The solver decides A x = b (mod m) completely: it returns a witness
whenever one exists and the empty result only when none exists, for any
composite modulus. All arithmetic stays in [0, m), so entries never grow.
"""

from __future__ import annotations

from itertools import compress
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


def mat_vec_mod(matrix: ModMatrix, vector: Sequence[int]) -> tuple[int, ...]:
    """Exact product A x reduced mod m, with x read mod m."""
    if matrix.cols != len(vector):
        raise DimensionMismatchError(
            f"matrix has {matrix.cols} columns, vector has {len(vector)} entries"
        )
    m = matrix.modulus
    x = [int(e) % m for e in vector]
    return tuple(sum(a * b for a, b in zip(row, x)) % m for row in matrix.entries)


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


# Maps the binary digits "0"/"1" to the bytes 0/1, selectors for `compress`.
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


class _SpanBasis:
    """Echelonized generating set for the column span of a k x n integer
    matrix A over Z_m.

    A is given as its nonzero entries: `rows[pos]` lists the columns of
    the nonzero entries of row `pos`, numbered from 1, and `weights[pos]`
    those entries. With `weights` None every listed entry is 1: `rows` is
    then the vertex tuple of each edge, the incidence matrix without its
    zeros. Callers pass program-built data; `ModMatrix` is the checked
    entry point for anything else.

    Built by gcd-pivot row reduction over Z_m applied to the transposed
    matrix, with one extra rule that makes membership testing complete
    for composite moduli: whenever a pivot p is placed, the annihilator
    multiple (m // p) * row is appended to the working set. Those extra
    rows capture the combinations that vanish at the pivot but not later,
    exactly the ambiguity a greedy reduction must be able to absorb
    (Howell's canonical-form construction).

    A working row is a column combination A c, and it is stored only as
    its coefficient vector c: a leading slot 0 that is always 0 and then
    one entry per column, so a row of A indexes it directly, as
    `verify_coloring` indexes `(0, *values)`. Slot 0 never gets a working
    row of its own: slot order is part of the pivot choice. The entry
    (A c)[pos] is evaluated when needed, so no length-k vector is ever
    built: `terms[pos]` maps c to its terms; a 0/1 row gathers its
    coefficients with one `itemgetter`, a weighted row multiplies each
    coefficient by its weight, so an entry a costs one product, not a
    copies of a column. A column's mask is a k-bit integer whose binary
    digit `pos` of `format(mask, f"0{k}b")` is 1 exactly when row `pos`
    lists the column. `classes[j]` is the class of column j, (mask,
    column indices): equal 0/1 columns, those with the same mask, share
    one class, and with `weights` every column is its own class. Slot 0
    has none. Each unplaced row caches its first nonzero position and the
    entry there; the reduction jumps to the smallest cached position and
    rescans only the rows it changed. Each pivot keeps its coefficient
    vector, so reducing a target to zero also yields a solution x with
    A x = target.
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
        flags = [bytearray(b"0" * k) for _ in range(width + 1)]
        for pos, cols in enumerate(rows):
            for j in cols:
                flags[j][pos] = 49  # ord("1")
        masks = [int(f, 2) for f in flags]
        if weights is None:
            self.terms = [itemgetter(*cols) for cols in rows]
            keys: Sequence[int] = masks
        else:
            self.terms = [
                lambda coef, cols=cols, ws=ws: map(mul, ws, map(coef.__getitem__, cols))
                for cols, ws in zip(rows, weights)
            ]
            keys = range(width + 1)
        classes: dict = {}
        for j in range(1, width + 1):
            classes.setdefault(keys[j], (masks[j], []))[1].append(j)
        self.classes = [None, *(classes[keys[j]] for j in range(1, width + 1))]
        # Working rows [next nonzero position, entry there, coefficients];
        # unplaced rows are zero at every position already passed, and a
        # row that is zero everywhere keeps position k and its slot, since
        # the swaps below make the slot order part of the pivot choice.
        work: list[list] = []
        for j in range(1, width + 1):
            coef = [0] * (width + 1)
            coef[j] = 1
            work.append([*self._scan(coef, 0), coef])
        placed = 0
        self.pivots: dict[int, tuple[int, list[int]]] = {}
        while placed < len(work):
            pos = min(row[0] for row in work[placed:])
            if pos == k:
                break
            cand = [i for i in range(placed, len(work)) if work[i][0] == pos]
            # Pivot choice: minimal gcd with m, ties to the lowest row.
            best = min(cand, key=lambda i: (gcd(work[i][1], m), i))
            work[placed], work[best] = work[best], work[placed]
            _, a, pcoef = work[placed]
            for i in range(placed + 1, len(work)):
                nxt, c, coef = work[i]
                if nxt != pos:
                    continue
                g, s, t = _xgcd(a, c)
                u, v = a // g, c // g
                # det [[s, t], [-v, u]] = (s*a + t*c)/g = 1: invertible over Z_m.
                # The pivot's entry becomes s*a + t*c = g, the row's u*c - v*a = 0.
                pcoef, coef = (
                    [(s * x + t * y) % m for x, y in zip(pcoef, coef)],
                    [(u * y - v * x) % m for x, y in zip(pcoef, coef)],
                )
                a = g
                work[i] = [*self._scan(coef, pos + 1), coef]
            unit = _unit_for(a, m)
            pcoef = [(unit * x) % m for x in pcoef]
            p = (unit * a) % m
            self.pivots[pos] = (p, pcoef)
            placed += 1
            # The annihilator row is zero up to pos; a unit pivot gives the
            # zero coefficient vector, and one that is zero past pos too
            # would never be a candidate, so neither joins the working set.
            ann = m // p
            acoef = [(ann * x) % m for x in pcoef]
            if any(acoef):
                nxt, value = self._scan(acoef, pos + 1)
                if nxt < k:
                    work.append([nxt, value, acoef])

    def _scan(self, coef: list[int], start: int) -> tuple[int, int]:
        """First position >= start where A coef is nonzero, with its entry;
        (k, 0) when there is none.

        Equal columns contribute their coefficient sum times their
        common column, so A coef can be nonzero only where a class of
        equal columns with a nonzero sum mod m is. Only the positions in
        the union of those classes' masks are evaluated, in order: a
        kernel row such as the difference of two twin columns costs
        nothing.
        """
        m = self.modulus
        terms = self.terms
        k = len(terms)
        get = coef.__getitem__
        met = 0
        # `compress` yields the class of each column with a nonzero
        # coefficient, so every class with a nonzero sum; a repeat ORs again
        for mask, js in compress(self.classes, coef):
            if sum(map(get, js)) % m:
                met |= mask
        if not met:
            return k, 0
        flags = format(met, f"0{k}b").encode().translate(_BIT_FLAGS)
        for pos in compress(range(start, k), flags[start:]):
            value = sum(terms[pos](coef)) % m
            if value:
                return pos, value
        return k, 0

    def express(self, target: Iterable[int]) -> tuple[int, list[int]]:
        """(a, x) with A x = a * target (mod m); x[0] is the zero slot.

        a = 1 exactly when the target is in the column span, and in any
        case gcd(a, m) = g, where the b with b * target in the span are
        exactly the multiples of g.

        One walk over the positions: the residual at `pos` is
        a * target[pos] - (A x)[pos] for the current a and x, and a pivot
        placed at `pos` is zero before it, so clearing `pos` keeps every
        earlier position clear. At a residual r that the pivot p (m where
        there is none) does not divide, a and x are first multiplied by
        u = p / gcd(r, p), the least factor that makes u * r a multiple
        of p. The basis is annihilator-closed, so a vector of the span
        that is zero before `pos` has its entry there in p * Z_m. For
        b = c * a with b * target in the span, c times the residual is
        such a vector, so u divides c: each factor is forced, and the
        final a generates the ideal of all such b. A target in the span
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
    witness = tuple(x[1:])
    if mat_vec_mod(matrix, witness) != b:
        raise InternalConsistencyError("solver produced a non-solution")
    return witness
