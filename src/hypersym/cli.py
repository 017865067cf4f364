"""Command-line front end.

Exit codes are a stable contract: 0 success (or equality holding),
10 conjecture violated on this instance (a finding, not an error),
2 a file could not be read, parsed or written, 3 disconnected input,
4 bad parameter, 5 enumeration budget exceeded or memory exhausted,
6 power iteration did not converge, 7 internal consistency check failed
(a bug, not bad input).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import fileio
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionMismatchError,
    DisconnectedError,
    FileFormatError,
    HypergraphError,
    HypersymError,
    ModulusMismatchError,
    ParameterError,
)
from .families import DEFAULT_EDGE_BUDGET, NikiforovParams, nikiforov, nikiforov_coloring, stock
from .hypergraph import has_isolated_vertex
from .power import conjecture_check, generalized_power, power_cyclic_index_shortcut
from .spectral import power_iteration_rho, verify_similarity
from .symmetry import cyclic_index, verify_coloring

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_PARAMETER = 4
EXIT_BUDGET = 5
EXIT_NO_CONVERGENCE = 6
EXIT_INTERNAL = 7
EXIT_CONJECTURE_FAILS = 10

# The exit code of an error is that of the first entry naming its class.
_EXIT_CODES = (
    ((FileFormatError, OSError), EXIT_PARSE),
    ((DisconnectedError,), EXIT_DISCONNECTED),
    ((BudgetExceededError, MemoryError), EXIT_BUDGET),
    ((ConvergenceError,), EXIT_NO_CONVERGENCE),
    (
        (ParameterError, HypergraphError, ModulusMismatchError, DimensionMismatchError),
        EXIT_PARAMETER,
    ),
    # InternalConsistencyError, and any library error not named above: a bug
    ((HypersymError,), EXIT_INTERNAL),
)


def cmd_analyze(args) -> int:
    graph = fileio.read_hypergraph(args.path)
    report = cyclic_index(graph)
    print(f"uniform {graph.uniformity}")
    print(f"vertices {graph.vertex_count}")
    print(f"edges {graph.edge_count}")
    for ell, witness in report.divisor_evidence.items():
        if witness is None:
            print(f"l = {ell}: unsolvable")
        else:
            print(f"l = {ell}: solvable, coloring = "
                  + " ".join(str(v) for v in witness.values))
    print(f"cyclic_index = {report.cyclic_index}")
    return EXIT_OK


def cmd_power(args) -> int:
    graph = fileio.read_hypergraph(args.path)
    # the power has one block per base vertex, so a vertex in no edge (a
    # huge `vertices` header, say) is refused before any block is built
    if has_isolated_vertex(graph):
        raise DisconnectedError("power requires every vertex to lie in an edge")
    m = args.m if args.m is not None else args.s * graph.uniformity
    power, layout = generalized_power(graph, m, args.s)
    fileio.write_hypergraph(power, args.output)
    layout_path = f"{args.output}.layout"
    try:
        fileio.write_layout(layout, layout_path)
    except OSError:
        os.remove(args.output)  # no half of the output pair is left
        raise
    print(f"wrote {args.output} ({power.vertex_count} vertices, "
          f"{power.edge_count} edges, uniform {power.uniformity})")
    print(f"wrote {layout_path}")
    shortcut = power_cyclic_index_shortcut(graph, m, args.s)
    if shortcut is not None:
        print(f"cyclic_index = {shortcut} (m > st)")
    return EXIT_OK


def cmd_conjecture(args) -> int:
    graph = fileio.read_hypergraph(args.path)
    report = conjecture_check(graph, args.s)
    print(f"base_cyclic_index = {report.base_cyclic_index}")
    print(f"power_cyclic_index = {report.power_cyclic_index}")
    print(f"product = {report.product}")
    print(f"equality = {'true' if report.equality else 'false'}")
    print("characterization_solvable = "
          + ("true" if report.characterization_solvable else "false"))
    print(f"guaranteed_symmetry = {report.guaranteed_symmetry}")
    if report.equality:
        print(f"c(power) = {report.power_cyclic_index} = s*c(base)")
        return EXIT_OK
    print(f"c(power) = {report.power_cyclic_index} != "
          f"{report.product} = s*c(base): conjecture fails here")
    return EXIT_CONJECTURE_FAILS


def cmd_nikiforov(args) -> int:
    try:
        a, b, c = (int(tok) for tok in args.sizes.split(","))
    except ValueError:
        raise ParameterError(f"--sizes wants 'a,b,c', got {args.sizes!r}")
    params = NikiforovParams(args.k, a, b, c)
    graph = nikiforov(params, budget=args.budget)
    fileio.write_hypergraph(graph, args.output)
    coloring_path = f"{args.output}.coloring"
    try:
        fileio.write_coloring(nikiforov_coloring(params), coloring_path)
    except OSError:
        os.remove(args.output)  # no half of the output pair is left
        raise
    print(f"wrote {args.output} ({graph.vertex_count} vertices, "
          f"{graph.edge_count} edges, uniform {graph.uniformity})")
    print(f"wrote {coloring_path}")
    return EXIT_OK


def cmd_gen(args) -> int:
    graph = stock(args.kind, args.size)
    fileio.write_hypergraph(graph, args.output)
    print(f"wrote {args.output} ({graph.vertex_count} vertices, "
          f"{graph.edge_count} edges, uniform {graph.uniformity})")
    return EXIT_OK


def cmd_rho(args) -> int:
    graph = fileio.read_hypergraph(args.path)
    estimate = power_iteration_rho(graph, tolerance=args.tol,
                                   max_iterations=args.max_iter)
    print(f"rho = {estimate.rho:.12f}")
    print(f"residual = {estimate.residual:.3e}")
    print(f"iterations = {estimate.iterations}")
    return EXIT_OK


def cmd_verify_coloring(args) -> int:
    graph = fileio.read_hypergraph(args.path)
    coloring = fileio.read_coloring(args.coloring)
    valid = verify_coloring(graph, coloring, args.ell)
    certificate = verify_similarity(graph, coloring, args.ell)
    verdict = "valid" if valid else "invalid"
    print(f"{verdict}, max_deviation = {certificate.max_deviation:.3e}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a bad parameter: one `error:` line and exit 4."""

    def error(self, message):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypersym",
        description="Cyclic index and spectral symmetry of uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="cyclic index with per-divisor evidence")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("power", help="write the generalized power hypergraph")
    p.add_argument("path")
    p.add_argument("--s", type=int, required=True, help="blow-up set size")
    p.add_argument("--m", type=int, default=None,
                   help="power uniformity (default s * base uniformity)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("conjecture", help="compare c(power) with s * c(base)")
    p.add_argument("path")
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("nikiforov", help="generate the three-class family")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sizes", required=True, help="class sizes as 'a,b,c'")
    p.add_argument("--budget", type=int, default=DEFAULT_EDGE_BUDGET)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_nikiforov)

    p = sub.add_parser("gen", help="generate a stock hypergraph")
    p.add_argument("kind", choices=["cycle", "path", "complete", "single_edge"])
    p.add_argument("size", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("rho", help="spectral radius by power iteration")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10000)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("verify-coloring",
                       help="check a coloring and its similarity certificate")
    p.add_argument("path")
    p.add_argument("--coloring", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_verify_coloring)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (HypersymError, OSError, MemoryError) as err:
        # a MemoryError usually carries no message
        message = "out of memory" if isinstance(err, MemoryError) else err
        print(f"error: {message}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(err, kinds))


if __name__ == "__main__":
    sys.exit(main())
