"""Cyclic index and spectral symmetry toolkit for uniform hypergraphs.

Exact modular linear algebra decides spectral symmetry orders; power
hypergraph construction and numerical tensor iteration cover the blow-up
product law and its counterexamples.
"""

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionMismatchError,
    DisconnectedError,
    DuplicateEdgeError,
    EdgeSizeError,
    FileFormatError,
    HypergraphError,
    HypersymError,
    InternalConsistencyError,
    ModulusMismatchError,
    ParameterError,
    RepeatedVertexError,
    VertexRangeError,
)
from .families import (
    DEFAULT_EDGE_BUDGET,
    NikiforovParams,
    complete,
    cycle,
    nikiforov,
    nikiforov_coloring,
    path,
    single_edge,
    stock,
)
from .hypergraph import (
    Hypergraph,
    build_hypergraph,
    incidence_matrix,
    is_connected,
)
from .modular import ModMatrix, solve_linear_mod
from .power import (
    ConjectureReport,
    PowerLayout,
    conjecture_check,
    generalized_power,
    power_cyclic_index_shortcut,
)
from .spectral import SpectralEstimate, power_iteration_rho
from .symmetry import (
    Coloring,
    SimilarityCertificate,
    SymmetryReport,
    cyclic_index,
    divisors,
    verify_coloring,
    verify_similarity,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Coloring",
    "ConjectureReport",
    "ConvergenceError",
    "DEFAULT_EDGE_BUDGET",
    "DimensionMismatchError",
    "DisconnectedError",
    "DuplicateEdgeError",
    "EdgeSizeError",
    "FileFormatError",
    "Hypergraph",
    "HypergraphError",
    "HypersymError",
    "InternalConsistencyError",
    "ModMatrix",
    "ModulusMismatchError",
    "NikiforovParams",
    "ParameterError",
    "PowerLayout",
    "RepeatedVertexError",
    "SimilarityCertificate",
    "SpectralEstimate",
    "SymmetryReport",
    "VertexRangeError",
    "build_hypergraph",
    "complete",
    "conjecture_check",
    "cycle",
    "cyclic_index",
    "divisors",
    "generalized_power",
    "incidence_matrix",
    "is_connected",
    "nikiforov",
    "nikiforov_coloring",
    "path",
    "power_cyclic_index_shortcut",
    "power_iteration_rho",
    "single_edge",
    "solve_linear_mod",
    "stock",
    "verify_coloring",
    "verify_similarity",
]
