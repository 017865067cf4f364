"""Adjacency-tensor numerics: spectral radius and similarity certificates.

The adjacency tensor is never materialized (it has n^m entries). The
power iteration contracts it with a float64 vector through one kernel:
it gathers x slot by slot from the (k, m) array of 0-based edge members,
builds each slot's product over the other members as whole-slot vector
products, and sums them edge by edge with `np.bincount`. numpy is
imported inside these functions. The similarity check needs only the m
phases of Z_m and is plain Python, so no command but `rho` pays for
loading numpy.
"""

from __future__ import annotations

from itertools import chain
from math import cos, isfinite, pi, sin
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    ConvergenceError,
    DisconnectedError,
    InternalConsistencyError,
    ParameterError,
)
from .hypergraph import Hypergraph, is_connected
from .symmetry import Coloring, _check_order

if TYPE_CHECKING:
    import numpy as np

# Exact-arithmetic monotonicity of the Collatz-Wielandt bracket can wobble
# by rounding noise; violations beyond this relative slack are a bug.
_BRACKET_SLACK = 1e-9


class SpectralEstimate(NamedTuple):
    """Power-iteration result: radius bracket and positive eigenvector."""

    rho: float
    eigenvector: np.ndarray
    iterations: int
    residual: float
    bracket: tuple[float, float]
    history: tuple[tuple[float, float], ...]


class SimilarityCertificate(NamedTuple):
    """Numerical witness that phases rotate the tensor onto itself.

    `max_deviation` is the largest distance from 1 of
    rotation^-1 * d_i^-(m-1) * prod_{j in e, j != i} d_j over all edges e
    and all leading vertices i; a valid coloring drives it to zero.
    """

    modulus: int
    phases: tuple[complex, ...]
    rotation: complex
    max_deviation: float


def _edge_index(graph: Hypergraph) -> np.ndarray:
    """The edges as a (k, m) intp array of 0-based vertex indices."""
    import numpy as np

    k, m = graph.edge_count, graph.uniformity
    edges = np.fromiter(chain.from_iterable(graph.edges), dtype=np.intp, count=k * m)
    edges -= 1
    return edges.reshape(k, m)


def _contract(edges: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Contract the adjacency tensor with float64 x in every slot but the first.

    Component i sums, over edges containing i, the product of x over the
    other edge members; the (m-1)! symmetric orderings cancel the
    1/(m-1)! entry weight. A slot's product is its suffix product (right
    to left) times its prefix product (left to right), so zeros in x are
    safe. Both run one slot at a time over all edges, and the weights are
    summed edge by edge, in edge order, so the result is the per-edge
    loop's bit for bit.
    """
    import numpy as np

    vals = x[edges.T]  # vals[j]: slot j of every edge
    w = np.empty(edges.shape)
    w[:, -2] = vals[-1]  # suffix products, right to left
    for j in range(len(vals) - 3, -1, -1):
        np.multiply(w[:, j + 1], vals[j + 1], out=w[:, j])
    w[:, -1] = vals[0]  # the running prefix product, left to right
    for j in range(1, len(vals) - 1):
        w[:, j] *= w[:, -1]
        w[:, -1] *= vals[j]
    # bincount of an empty index is integer, whatever the weights
    return np.bincount(edges.ravel(), weights=w.ravel(), minlength=n).astype(float, copy=False)


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
    import numpy as np

    m, n = graph.uniformity, graph.vertex_count
    edges = _edge_index(graph)
    x = np.ones(n)
    x /= np.linalg.norm(x)
    history: list[tuple[float, float]] = []
    for iteration in range(1, max_iterations + 1):
        y = _contract(edges, x, n)
        with np.errstate(all="ignore"):
            ratios = y / x ** (m - 1)
        lo, hi = float(ratios.min()), float(ratios.max())
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
    so the maximum deviation is numerically zero; any edge whose colors
    miss m/l shows up as a deviation bounded away from zero.

    An entry depends on its edge only through the product of the edge's
    phases, taken in member order, and the color of its leading vertex.
    So each distinct color tuple is multiplied out once, and the rest of
    the formula runs once per distinct (product, color) pair. The float
    operations are those of the array formula
    |(prod(d) / d_i) * d_i^-(m-1) / rotation - 1| in numpy, in numpy's
    order: the product from the first member on, Smith's complex
    division with a reciprocal, binary powering, and libm's `hypot`
    through `abs` of a complex (`math.hypot` rounds differently). The
    deviation is thus the one numpy computes, bit for bit, for m < 101;
    from there on numpy's power calls libm's `cpow` instead.
    """
    m = _check_order(graph, symmetry_order, coloring)
    # numpy divides the angles by m as complex numbers: it multiplies by 1/m
    step = 1.0 / m
    table = [_unit(2 * pi * v * step) for v in range(m)]
    rotation = _unit(2 * pi / symmetry_order)
    # per color: the constants for dividing by d, then d^-(m-1)
    slots = [(_division(d), _inverse_power(d, m - 1)) for d in table]
    by_rotation = _division(rotation)
    get = (0, *coloring.values).__getitem__
    # colors met with each product; a product that is 0.0 in one tuple and
    # -0.0 in another shares a key, which is harmless: the steps below only
    # multiply and add, so the sign of a zero never reaches the modulus
    present: dict[complex, set[int]] = {}
    for colors in {tuple(map(get, edge)) for edge in graph.edges}:
        product = table[colors[0]]
        for c in colors[1:]:
            product *= table[c]
        present.setdefault(product, set()).update(colors)
    worst = 0.0
    for product, leads in present.items():
        for by_lead, own in map(slots.__getitem__, leads):
            gap = abs(_divide(_divide(product, by_lead) * own, by_rotation) - 1.0)
            if gap > worst:
                worst = gap
    return SimilarityCertificate(
        modulus=m,
        phases=tuple(map(table.__getitem__, coloring.values)),
        rotation=rotation,
        max_deviation=worst,
    )


def _unit(theta: float) -> complex:
    """exp(i theta), as numpy's complex exp computes it at real part 0."""
    return complex(cos(theta), sin(theta))


def _division(d: complex) -> tuple[bool, float, float]:
    """Smith's constants for dividing by d as numpy does; `_divide` applies them."""
    if abs(d.real) >= abs(d.imag):
        rat = d.imag / d.real
        return True, rat, 1.0 / (d.real + d.imag * rat)
    rat = d.real / d.imag
    return False, rat, 1.0 / (d.imag + d.real * rat)


def _divide(x: complex, by: tuple[bool, float, float]) -> complex:
    """x / d, from the constants `_division(d)`."""
    wide, rat, scl = by
    xr, xi = x.real, x.imag
    if wide:
        return complex((xr + xi * rat) * scl, (xi - xr * rat) * scl)
    return complex((xr * rat + xi) * scl, (xi * rat - xr) * scl)


def _inverse_power(d: complex, n: int) -> complex:
    """d^-n for 0 < n < 100 as numpy computes it: binary powering from 1,
    then 1 / r by Smith's rule, with CPython's complex product (numpy's). A
    zero of 1 / r may differ in sign (at rat = 0); no modulus sees it."""
    r = 1 + 0j
    while True:
        if n & 1:
            r *= d
        n >>= 1
        if not n:
            return _divide(1.0, _division(r))
        d *= d
