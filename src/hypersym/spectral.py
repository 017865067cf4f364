"""Adjacency-tensor numerics: spectral radius and similarity certificates.

The adjacency tensor is never materialized (it has n^m entries); every
operation streams over the edge list instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isfinite, pi

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DisconnectedError,
    InternalConsistencyError,
    ParameterError,
)
from .hypergraph import Hypergraph, is_connected
from .symmetry import Coloring, _check_order

# Exact-arithmetic monotonicity of the Collatz-Wielandt bracket can wobble
# by rounding noise; violations beyond this relative slack are a bug.
_BRACKET_SLACK = 1e-9


@dataclass
class SpectralEstimate:
    """Power-iteration result: radius bracket and positive eigenvector."""

    rho: float
    eigenvector: np.ndarray
    iterations: int
    residual: float
    bracket: tuple[float, float]
    history: tuple[tuple[float, float], ...]


@dataclass
class SimilarityCertificate:
    """Numerical witness that phases rotate the tensor onto itself.

    `max_deviation` is the largest distance from 1 of
    rotation^-1 * d_i^-(m-1) * prod_{j in e, j != i} d_j over all edges e
    and all leading vertices i; a valid coloring drives it to zero.
    """

    modulus: int
    phases: np.ndarray
    rotation: complex
    max_deviation: float


def apply_adjacency(graph: Hypergraph, x) -> np.ndarray:
    """Contract the adjacency tensor with x in every slot but the first.

    Component i sums, over edges containing i, the product of x over the
    other edge members; the (m-1)! symmetric orderings cancel the
    1/(m-1)! entry weight.
    """
    vec = np.asarray(x)
    if vec.shape != (graph.vertex_count,):
        raise DimensionMismatchError(
            f"expected a vector of length {graph.vertex_count}, got shape {vec.shape}"
        )
    out = np.zeros(graph.vertex_count, dtype=np.result_type(vec.dtype, np.float64))
    for edge in graph.edges:
        idx = np.array(edge) - 1
        vals = vec[idx]
        prefix = np.concatenate(([1], np.cumprod(vals[:-1])))
        suffix = np.concatenate((np.cumprod(vals[:0:-1])[::-1], [1]))
        out[idx] += prefix * suffix
    return out


def power_iteration_rho(
    graph: Hypergraph, tolerance: float = 1e-10, max_iterations: int = 10000
) -> SpectralEstimate:
    """Spectral radius of a connected hypergraph by tensor power iteration.

    Starting from the all-ones vector, iterate
    x <- normalize((A x)^(1/(m-1))). Each step the ratios
    (A x)_i / x_i^(m-1) bracket the radius from both sides; the bracket
    shrinks monotonically and iteration stops once its width is within
    `tolerance`. The reported rho is the bracket midpoint.

    Raises ConvergenceError (carrying the last bracket) if the width does
    not reach `tolerance` within `max_iterations`; this happens for some
    spectrally symmetric inputs, where the bracket stalls.
    """
    if not (isfinite(tolerance) and tolerance > 0):
        raise ParameterError(f"tolerance must be positive and finite, got {tolerance}")
    if max_iterations < 1:
        raise ParameterError(f"max_iterations must be >= 1, got {max_iterations}")
    if not is_connected(graph):
        raise DisconnectedError("power iteration requires a connected hypergraph")
    m = graph.uniformity
    x = np.ones(graph.vertex_count)
    x /= np.linalg.norm(x)
    history: list[tuple[float, float]] = []
    for iteration in range(1, max_iterations + 1):
        y = apply_adjacency(graph, x)
        ratios = y / x ** (m - 1)
        lo, hi = float(ratios.min()), float(ratios.max())
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
                eigenvector=x,
                iterations=iteration,
                residual=hi - lo,
                bracket=(lo, hi),
                history=tuple(history),
            )
        x = y ** (1.0 / (m - 1))
        x /= np.linalg.norm(x)
    lo, hi = history[-1]
    raise ConvergenceError(
        f"bracket width {hi - lo:.3e} above tolerance {tolerance:.3e} "
        f"after {max_iterations} iterations (bracket [{lo}, {hi}])",
        bracket=(lo, hi),
        iterations=max_iterations,
    )


def verify_similarity(
    graph: Hypergraph, coloring: Coloring, symmetry_order: int
) -> SimilarityCertificate:
    """Certify spectrum rotation by the coloring's diagonal phase matrix.

    Maps each color to the unit phase d_v = exp(i 2 pi phi(v) / m) and
    measures, on every nonzero tensor entry, how far
    exp(-i 2 pi / l) * d_i^-(m-1) * prod_{j in e, j != i} d_j
    lands from 1. A valid coloring makes the diagonal similarity exact,
    so the maximum deviation is numerically zero; any violated edge shows
    up as a deviation bounded away from zero.
    """
    m = _check_order(graph, symmetry_order, coloring)
    phases = np.exp(2j * pi * np.array(coloring.values) / m)
    rotation = complex(np.exp(2j * pi / symmetry_order))
    max_deviation = 0.0
    for edge in graph.edges:
        d = phases[np.array(edge) - 1]
        full = d.prod()
        for i in range(m):
            value = full / d[i] * d[i] ** (-(m - 1)) / rotation
            max_deviation = max(max_deviation, abs(value - 1.0))
    return SimilarityCertificate(
        modulus=m, phases=phases, rotation=rotation, max_deviation=max_deviation
    )


def guaranteed_circle_points(rho: float, base_index: int, blowup: int) -> list[complex]:
    """Eigenvalues guaranteed on the power's spectral circle.

    The power of a base with cyclic index c is symmetric of order
    d = lcm(s, c), so rho * exp(i 2 pi q / d) for q = 0..d-1 are all
    eigenvalues of the power.
    """
    if rho < 0:
        raise ParameterError(f"rho must be nonnegative, got {rho}")
    if base_index < 1 or blowup < 1:
        raise ParameterError("base_index and blowup must be >= 1")
    d = blowup * base_index // gcd(blowup, base_index)
    return [rho * complex(np.exp(2j * pi * q / d)) for q in range(d)]
