"""Exact linear algebra over the residue ring Z_m.

The solver decides A x = b (mod m) completely: it returns a witness
whenever one exists and the empty result only when none exists, for any
composite modulus. All arithmetic stays in [0, m), so entries never grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    ModulusMismatchError,
    ParameterError,
)


@dataclass(frozen=True)
class ModMatrix:
    """Dense matrix with entries reduced into [0, modulus)."""

    modulus: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, modulus: int, entries: Iterable[Sequence[int]]):
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        reduced = tuple(tuple(int(e) % modulus for e in row) for row in entries)
        if not reduced or not reduced[0]:
            raise ParameterError("matrix must have at least one row and one column")
        width = len(reduced[0])
        if any(len(row) != width for row in reduced):
            raise DimensionMismatchError("rows have unequal lengths")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "entries", reduced)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


@dataclass(frozen=True)
class ModVector:
    """Vector with entries reduced into [0, modulus)."""

    modulus: int
    entries: tuple[int, ...]

    def __init__(self, modulus: int, entries: Iterable[int]):
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "entries", tuple(int(e) % modulus for e in entries))

    def __len__(self) -> int:
        return len(self.entries)


def mat_vec_mod(matrix: ModMatrix, vector: ModVector) -> ModVector:
    """Exact product A x reduced mod m."""
    if matrix.modulus != vector.modulus:
        raise ModulusMismatchError(
            f"matrix modulus {matrix.modulus} != vector modulus {vector.modulus}"
        )
    if matrix.cols != len(vector):
        raise DimensionMismatchError(
            f"matrix has {matrix.cols} columns, vector has {len(vector)} entries"
        )
    m = matrix.modulus
    x = vector.entries
    return ModVector(
        m, (sum(a * b for a, b in zip(row, x)) % m for row in matrix.entries)
    )


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
    """Echelonized generating set for the column span of a k x n matrix.

    Built by gcd-pivot row reduction over Z_m applied to the transposed
    matrix, with one extra rule that makes membership testing complete
    for composite moduli: whenever a pivot p is placed, the annihilator
    multiple (m // p) * row is appended to the working set. Those extra
    rows capture the combinations that vanish at the pivot but not later,
    exactly the ambiguity a greedy reduction must be able to absorb
    (Howell's canonical-form construction).

    Each basis row carries the coefficient vector that expresses it in
    terms of the original columns, so reducing a target vector to zero
    also yields a solution x with A x = target.

    `rows` are the rows of A, at least one, of equal nonzero length, with
    entries already in [0, m); callers pass program-built data, and
    `ModMatrix` is the checked entry point for anything else.
    """

    def __init__(self, modulus: int, rows: Sequence[Sequence[int]]):
        m = modulus
        k, n = len(rows), len(rows[0])
        self.modulus = m
        self.length = k
        self.width = n
        # Working rows: (vec, coeff) with vec == A @ coeff (mod m).
        work: list[tuple[list[int], list[int]]] = []
        for j in range(n):
            vec = [row[j] for row in rows]
            coeff = [0] * n
            coeff[j] = 1
            work.append((vec, coeff))
        placed = 0
        self.pivots: dict[int, tuple[int, list[int], list[int]]] = {}
        for pos in range(k):
            cand = [i for i in range(placed, len(work)) if work[i][0][pos]]
            if not cand:
                continue
            # Pivot choice: minimal gcd with m, ties to the lowest row.
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
                # det [[s, t], [-v, u]] = (s*a + t*c)/g = 1: invertible over Z_m.
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

    def express(self, target: Sequence[int]) -> Optional[list[int]]:
        """Coefficients x with A x = target (mod m), or None."""
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
        if any(residual):
            raise InternalConsistencyError("reduction left a nonzero residual")
        return x


def solve_linear_mod(matrix: ModMatrix, rhs: ModVector) -> Optional[ModVector]:
    """Solve A x = b (mod m); return one witness or None.

    Complete for every modulus: b is reduced against an annihilator-closed
    echelon basis of the column span of A, so the verdict "no solution"
    is exact, not a pivoting accident. Any returned witness is checked by
    substitution before being handed back.
    """
    if matrix.modulus != rhs.modulus:
        raise ModulusMismatchError(
            f"matrix modulus {matrix.modulus} != rhs modulus {rhs.modulus}"
        )
    if matrix.rows != len(rhs):
        raise DimensionMismatchError(
            f"matrix has {matrix.rows} rows, rhs has {len(rhs)} entries"
        )
    x = _SpanBasis(matrix.modulus, matrix.entries).express(rhs.entries)
    if x is None:
        return None
    witness = ModVector(matrix.modulus, x)
    if mat_vec_mod(matrix, witness).entries != rhs.entries:
        raise InternalConsistencyError("solver produced a non-solution")
    return witness
