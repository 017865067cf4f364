"""Outside-in tracing: timing wrappers around hypersym's public functions.

The package's modules import each other with `from .x import y`, so a
function is reachable under several module namespaces. `Tracer.install`
replaces every binding of each public function in every `hypersym.*`
namespace and `Tracer.uninstall` restores them. Each call records a span
(name, start, end, parent, job); self time is a span's duration minus the
time its child spans cover, tracer bookkeeping excluded. Functions that
the per-layer metrics name but the package no longer defines read as zero
calls and are listed in `absent`.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "fileio", "families", "hypergraph", "modular", "symmetry", "power",
          "spectral")

# (metric, unit) reported for every traced workload; the counters behind
# the extra (non self_s / calls) metrics are filled by the hooks below.
PER_LAYER = [
    ("cli.import_s", "s"), ("cli.main.self_s", "s"),
    ("fileio.read_hypergraph.self_s", "s"), ("fileio.read_hypergraph.bytes", "B"),
    ("fileio.parse_hypergraph.self_s", "s"),
    ("fileio.write_hypergraph.self_s", "s"), ("fileio.write_hypergraph.bytes", "B"),
    ("fileio.read_coloring.self_s", "s"),
    ("families.nikiforov.self_s", "s"),
    ("hypergraph.build_hypergraph.self_s", "s"),
    ("hypergraph.is_connected.calls", "count"), ("hypergraph.is_connected.self_s", "s"),
    ("hypergraph.is_connected.useful_ratio", "ratio"),
    ("hypergraph.incidence_matrix.calls", "count"),
    ("hypergraph.incidence_matrix.self_s", "s"),
    ("modular.solve_linear_mod.calls", "count"), ("modular.solve_linear_mod.self_s", "s"),
    ("modular.solve_linear_mod.cells", "count"),
    ("modular.solve_linear_mod.unsolvable", "count"),
    ("modular.solve_linear_mod.useful_ratio", "ratio"),
    ("modular.mat_vec_mod.self_s", "s"),
    ("symmetry.cyclic_index.self_s", "s"), ("symmetry.is_l_symmetric.calls", "count"),
    ("symmetry.verify_coloring.self_s", "s"),
    ("power.generalized_power.self_s", "s"), ("power.generalized_power.edges_out", "count"),
    ("power.conjecture_check.self_s", "s"),
    ("spectral.apply_adjacency.calls", "count"), ("spectral.apply_adjacency.self_s", "s"),
    ("spectral.apply_adjacency.edge_visits", "count"),
    ("spectral.power_iteration_rho.self_s", "s"),
    ("spectral.power_iteration_rho.iterations", "count"),
    ("spectral.verify_similarity.self_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.absent_functions", "count"),
]

# Metrics measured outside the traced pass (filled in by the caller).
EXTERNAL = {"cli.import_s", "trace.untraced_wall_s", "trace.traced_wall_s",
            "trace.overhead_s"}

NAMED = sorted({name.rsplit(".", 1)[0] for name, _ in PER_LAYER
                if name.count(".") == 2 and name not in EXTERNAL})

def _identity(value) -> int:
    """Key for the useful-work ratios: equal inputs within one job count once."""
    try:
        return hash(value)
    except TypeError:
        return id(value)


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, outer_end, job]
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.unreadable: set[str] = set()  # functions whose counters a hook could not read
        self.job = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "hypersym" or name.startswith("hypersym."))]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        present = {w.__trace_name__ for w in wrappers.values()}
        self.absent = [name for name in NAMED if name not in present]

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, 0.0, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = span[4] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError, OSError):
                    self.unreadable.add(name)
                span[4] = perf_counter()
            return result

        wrapper.__trace_name__ = name
        return wrapper

    # --- counters, named after the function they follow -------------------

    def _after_fileio_read_hypergraph(self, args, result):
        self.counters["fileio.read_hypergraph.bytes"] += os.path.getsize(args["path"])

    def _after_fileio_write_hypergraph(self, args, result):
        self.counters["fileio.write_hypergraph.bytes"] += os.path.getsize(args["path"])

    def _after_hypergraph_is_connected(self, args, result):
        self.distinct["hypergraph.is_connected"].add((self.job, _identity(args["graph"])))

    def _after_modular_solve_linear_mod(self, args, result):
        matrix = args["matrix"]
        self.counters["modular.solve_linear_mod.cells"] += matrix.rows * matrix.cols
        self.counters["modular.solve_linear_mod.unsolvable"] += result is None
        self.distinct["modular.solve_linear_mod"].add(
            (self.job, _identity(matrix), matrix.modulus))

    def _after_spectral_apply_adjacency(self, args, result):
        self.counters["spectral.apply_adjacency.edge_visits"] += args["graph"].edge_count

    def _after_spectral_power_iteration_rho(self, args, result):
        self.counters["spectral.power_iteration_rho.iterations"] += result.iterations

    def _after_power_generalized_power(self, args, result):
        self.counters["power.generalized_power.edges_out"] += result[0].edge_count

    # --- summary ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded (EXTERNAL ones excluded)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, outer_end, job in self.spans:
            if parent is not None:
                covered[parent] += outer_end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, parent, outer_end, job) in enumerate(self.spans):
            self_time[name] += end - start - covered[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            if metric in EXTERNAL:
                continue
            function, _, field = metric.rpartition(".")
            if function in LAYERS:  # whole-layer self time
                out[metric] = sum(v for k, v in self_time.items()
                                  if k.startswith(function + "."))
            elif field == "self_s":
                out[metric] = self_time.get(function, 0.0)
            elif field == "calls":
                out[metric] = calls[function]
            elif field == "useful_ratio":
                out[metric] = (len(self.distinct[function]) / calls[function]
                               if calls[function] else 0.0)
            elif metric == "trace.absent_functions":
                out[metric] = len(self.absent)
            else:
                out[metric] = self.counters[metric]
        return out
