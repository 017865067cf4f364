"""Inputs, job lists and correctness checks for the benchmark workloads.

Everything here is the benchmark's own code: it generates the inputs
from a seed, and it checks each job's output against answers that do not
come from the code under test (the paper's verdicts, the benchmark's own
family and blow-up construction, its own edge-sum and power-iteration
code, and golden sweep verdicts recorded at a reference commit).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden_sweep.json"

FAMILY_SIZES = (12, 12, 8)
SMALL_FAMILY_SIZES = (6, 6, 4)
RHO_TOL = 1e-8
# rho of the (12,12,8) family as the seed commit printed it (12 decimals,
# shown here to 6); base and s=2 power agree because a pure blow-up keeps
# the Perron value.
FAMILY_RHO = {(12, 12, 8): 1131.514280}

SWEEP_POOL_SEED = "sweep-pool-v1"
SWEEP_UNIFORMITIES = (2, 3, 4, 6)
SWEEP_POOL_PER_T = 50
SWEEP_MAX_VERTICES = 12
SWEEP_PICK = {False: (13, 13, 12, 12), True: (2, 2, 2, 2)}


@dataclass(frozen=True)
class Graph:
    """A t-uniform hypergraph as a (k, t) array of sorted 0-based rows."""

    t: int
    n: int
    edges: np.ndarray

    @classmethod
    def from_edges(cls, t: int, n: int, edges) -> "Graph":
        rows = np.sort(np.asarray(list(edges), dtype=np.int64).reshape(-1, t), axis=1)
        rows = rows[np.lexsort(rows.T[::-1])]
        return cls(t, n, rows)

    def relabel(self, perm: np.ndarray) -> "Graph":
        return Graph.from_edges(self.t, self.n, perm[self.edges])

    def blowup(self, s: int) -> "Graph":
        """Vertex v becomes the block v*s .. v*s+s-1; no padding (m = s*t)."""
        rows = (self.edges[:, :, None] * s + np.arange(s)).reshape(len(self.edges), -1)
        return Graph.from_edges(self.t * s, self.n * s, rows)

    def edge_set(self) -> set[tuple[int, ...]]:
        return set(map(tuple, (self.edges + 1).tolist()))

    def text(self) -> str:
        lines = [f"uniform {self.t}", f"vertices {self.n}"]
        lines.extend(" ".join(map(str, row)) for row in (self.edges + 1).tolist())
        return "\n".join(lines) + "\n"

    def write(self, path: Path) -> None:
        path.write_text(self.text(), encoding="utf-8")

    def sums_ok(self, values, ell: int) -> bool:
        """Own edge-sum check: every edge sums to t/ell mod t."""
        colors = np.asarray(values, dtype=np.int64)
        if colors.shape != (self.n,) or colors.min() < 0 or colors.max() >= self.t:
            return False
        return bool(np.all(colors[self.edges].sum(axis=1) % self.t == self.t // ell % self.t))

    def perron(self, tol: float) -> float:
        """Spectral radius by power iteration with a Collatz-Wielandt bracket."""
        x = np.full(self.n, 1.0 / math.sqrt(self.n))
        for _ in range(100_000):
            members = x[self.edges]
            others = members.prod(axis=1, keepdims=True) / members
            y = np.bincount(self.edges.ravel(), weights=others.ravel(), minlength=self.n)
            ratios = y / x ** (self.t - 1)
            lo, hi = float(ratios.min()), float(ratios.max())
            if hi - lo <= tol:
                return (lo + hi) / 2
            x = y ** (1.0 / (self.t - 1))
            x /= np.linalg.norm(x)
        raise RuntimeError("reference power iteration did not converge")


def read_edge_file(path: Path) -> tuple[int, int, set[tuple[int, ...]]]:
    """Parse a hypergraph file written by the program: (t, n, 1-based edges)."""
    lines = [ln.split() for ln in path.read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    t, n = int(lines[0][1]), int(lines[1][1])
    return t, n, {tuple(sorted(map(int, row))) for row in lines[2:]}


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def family(sizes: tuple[int, int, int], k: int = 1) -> Graph:
    """The paper's three-class family: all 4k-sets meeting (A, C) in (2k, 2k),
    (B, C) in (2k, 2k), or (A, B) in (k, 3k) or (3k, k)."""
    a, b, c = sizes
    A, B, C = range(a), range(a, a + b), range(a + b, a + b + c)
    edges = [
        left_part + right_part
        for left, right, i, j in ((A, C, 2 * k, 2 * k), (B, C, 2 * k, 2 * k),
                                  (A, B, k, 3 * k), (A, B, 3 * k, k))
        for left_part in combinations(left, i)
        for right_part in combinations(right, j)
    ]
    return Graph.from_edges(4 * k, a + b + c, edges)


def family_coloring(sizes: tuple[int, int, int], k: int = 1) -> list[int]:
    """Class-constant order-2 witness: A -> 1, B -> 4k-1, C -> 0 (mod 4k)."""
    a, b, c = sizes
    return [1] * a + [4 * k - 1] * b + [0] * c


def permutation(rng: random.Random, n: int) -> np.ndarray:
    order = list(range(n))
    rng.shuffle(order)
    return np.array(order, dtype=np.int64)


def sweep_pool() -> list[Graph]:
    """Deterministic pool of random connected t-uniform hypergraphs, n <= 12.

    A chain of edges, each adding up to t-1 fresh vertices to one covered
    vertex, makes the graph connected; up to n extra random edges follow.
    """
    rng = random.Random(SWEEP_POOL_SEED)
    pool = []
    for t in SWEEP_UNIFORMITIES:
        for _ in range(SWEEP_POOL_PER_T):
            n = rng.randint(t + 1, SWEEP_MAX_VERTICES)
            order = list(range(n))
            rng.shuffle(order)
            covered, pending = order[:t], order[t:]
            edges = {tuple(sorted(covered))}
            while pending:
                fresh, pending = pending[:t - 1], pending[t - 1:]
                rest = rng.sample(covered, t - len(fresh))
                edges.add(tuple(sorted(rest + fresh)))
                covered += fresh
            target = len(edges) + rng.randint(0, n)
            for _ in range(4 * n):
                if len(edges) >= target:
                    break
                edges.add(tuple(sorted(rng.sample(range(n), t))))
            pool.append(Graph.from_edges(t, n, edges))
    return pool


def digest(graph: Graph) -> str:
    return hashlib.sha1(graph.text().encode()).hexdigest()


# --- parsing and checking command output -------------------------------


def parse_analyze(out: str) -> tuple[dict[str, int], dict[int, list[int] | None], int | None]:
    header: dict[str, int] = {}
    levels: dict[int, list[int] | None] = {}
    index = None
    for line in out.splitlines():
        if line.startswith("l = "):
            ell, _, rest = line[4:].partition(":")
            rest = rest.strip()
            if rest == "unsolvable":
                levels[int(ell)] = None
            elif rest.startswith("solvable, coloring = "):
                levels[int(ell)] = [int(v) for v in rest.split("=", 1)[1].split()]
        elif line.startswith("cyclic_index = "):
            index = int(line.split("=", 1)[1])
        elif line.split(" ", 1)[0] in ("uniform", "vertices", "edges"):
            key, value = line.split()
            header[key] = int(value)
    return header, levels, index


def check_analyze(graph: Graph, expected_index: int | None, code: int, out: str) -> list[str]:
    """Exit code, header, every witness by own edge sums, divisor closure, c | m."""
    if code != 0:
        return [f"exit {code}, expected 0"]
    problems = []
    header, levels, index = parse_analyze(out)
    want = {"uniform": graph.t, "vertices": graph.n, "edges": len(graph.edges)}
    if header != want:
        problems.append(f"header {header} != {want}")
    if sorted(levels) != divisors(graph.t):
        problems.append(f"orders {sorted(levels)} are not the divisors of {graph.t}")
    solvable = [ell for ell, witness in levels.items() if witness is not None]
    for ell in solvable:
        if not graph.sums_ok(levels[ell], ell):
            problems.append(f"witness for l = {ell} fails the edge-sum check")
        if any(levels.get(d) is None for d in divisors(ell)):
            problems.append(f"order {ell} solvable but a divisor is not")
    if index is None or not solvable or index != max(solvable) or graph.t % index:
        problems.append(f"cyclic_index {index} inconsistent with orders {solvable}")
    elif expected_index is not None and index != expected_index:
        problems.append(f"cyclic_index {index}, expected {expected_index}")
    return problems


def parse_fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and " " not in key:
            fields[key] = value.strip()
    return fields


def check_conjecture(s: int, expected: tuple[int, int] | None, code: int, out: str,
                     seen_base: int | None = None) -> list[str]:
    """Report fields against the product-law divisibility chain and the
    characterization theorem, the exit code, and the expected (c, c(power))."""
    fields = parse_fields(out)
    try:
        base = int(fields["base_cyclic_index"])
        power = int(fields["power_cyclic_index"])
        product = int(fields["product"])
        equality = {"true": True, "false": False}[fields["equality"]]
        solvable = {"true": True, "false": False}[fields["characterization_solvable"]]
        guaranteed = int(fields["guaranteed_symmetry"])
    except (KeyError, ValueError):
        return [f"exit {code}, unparsable report {fields}"]
    problems = []
    lcm = s * base // math.gcd(s, base)
    if product != s * base or guaranteed != lcm:
        problems.append(f"product {product} / guaranteed {guaranteed} wrong for c = {base}")
    if power % s or power % base or product % power or power % lcm:
        problems.append(f"divisibility chain broken: c = {base}, c(power) = {power}")
    if equality != (power == product) or solvable != equality:
        problems.append(f"equality {equality} / characterization {solvable} disagree")
    if code != (0 if power == product else 10):
        problems.append(f"exit {code} for equality {power == product}")
    if expected is not None and (base, power) != expected:
        problems.append(f"(c, c(power)) = {(base, power)}, expected {expected}")
    if seen_base is not None and base != seen_base:
        problems.append(f"base index {base} differs from analyze's {seen_base}")
    return problems


# --- workloads ------------------------------------------------------------


@dataclass
class Job:
    """One CLI invocation: `args` follow `hypersym`; `key` is unique in a pass,
    `kind` names the per-command metric it feeds."""

    key: str
    kind: str
    args: list[str]
    check: Callable[[int, str], list[str]]


class Workload:
    name = ""
    why = ""
    # per-command end-to-end metrics: kind -> metric name
    command_metrics: dict[str, str] = {}

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.small = small

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def jobs(self, workdir: Path, pass_no: int) -> Iterator[Job]:
        raise NotImplementedError

    def permuted_family(self) -> tuple[tuple[int, int, int], Graph, np.ndarray]:
        """This run's family size, the family, and the seed's relabelling."""
        sizes = SMALL_FAMILY_SIZES if self.small else FAMILY_SIZES
        base = family(sizes)
        return sizes, base, permutation(random.Random(f"{self.name}/{self.seed}"), base.n)


class FamilyK1(Workload):
    name = "family_k1"
    why = ("paper's k=1 counterexample at (12,12,8): per-edge exact work "
           "dominates startup; modular is most of conjecture")
    command_metrics = {
        "nikiforov": "nikiforov_s", "analyze": "analyze_s",
        "conjecture_s2": "conjecture_s2_s", "conjecture_s3": "conjecture_s3_s",
        "power": "power_s", "analyze_power": "analyze_power_s",
    }

    def setup(self, workdir: Path) -> None:
        self.sizes, self.base, perm = self.permuted_family()
        self.graph = self.base.relabel(perm)
        self.graph.write(workdir / "family.hg")

    def jobs(self, workdir: Path, pass_no: int) -> Iterator[Job]:
        src = str(workdir / "family.hg")
        nik = workdir / f"nik_{pass_no}.hg"
        power = workdir / f"power_{pass_no}.hg"
        sizes = ",".join(map(str, self.sizes))
        yield Job("nikiforov", "nikiforov", ["nikiforov", "--k", "1", "--sizes", sizes,
                                             "-o", str(nik)], self._check_nikiforov(nik))
        yield Job("analyze", "analyze", ["analyze", src],
                  lambda code, out: check_analyze(self.graph, 2, code, out))
        yield Job("conjecture_s2", "conjecture_s2", ["conjecture", src, "--s", "2"],
                  lambda code, out: check_conjecture(2, (2, 2), code, out))
        yield Job("conjecture_s3", "conjecture_s3", ["conjecture", src, "--s", "3"],
                  lambda code, out: check_conjecture(3, (2, 6), code, out))
        yield Job("power", "power", ["power", src, "--s", "2", "-o", str(power)],
                  self._check_power(power))
        yield Job("analyze_power", "analyze_power", ["analyze", str(power)],
                  lambda code, out: check_analyze(self.graph.blowup(2), 2, code, out))

    def _check_nikiforov(self, path: Path):
        def check(code: int, out: str) -> list[str]:
            if code != 0:
                return [f"exit {code}, expected 0"]
            if read_edge_file(path) != (self.base.t, self.base.n, self.base.edge_set()):
                return ["family file differs from the paper's definition"]
            coloring = Path(f"{path}.coloring").read_text(encoding="utf-8").split()
            if coloring != ["modulus", "4"] + list(map(str, family_coloring(self.sizes))):
                return ["family coloring is not the class-constant witness"]
            return []
        return check

    def _check_power(self, path: Path):
        def check(code: int, out: str) -> list[str]:
            if code != 0:
                return [f"exit {code}, expected 0"]
            want = self.graph.blowup(2)
            if read_edge_file(path) != (want.t, want.n, want.edge_set()):
                return ["power file is not the s=2 blow-up of the input"]
            if not Path(f"{path}.layout").is_file():
                return ["layout file missing"]
            return []
        return check


class SpectralK1(Workload):
    name = "spectral_k1"
    why = ("rho and verify-coloring on the same family: apply_adjacency "
           "dominates, modular is idle")
    command_metrics = {"rho": "rho_s", "rho_power": "rho_power_s", "verify": "verify_s"}

    def setup(self, workdir: Path) -> None:
        self.sizes, base, perm = self.permuted_family()
        self.graph = base.relabel(perm)
        self.graph.write(workdir / "family.hg")
        self.graph.blowup(2).write(workdir / "power.hg")
        colors = np.empty(base.n, dtype=np.int64)
        colors[perm] = family_coloring(self.sizes)
        self.coloring = colors.tolist()
        (workdir / "family.col").write_text(
            "\n".join(["modulus 4"] + list(map(str, self.coloring))) + "\n", encoding="utf-8")
        self._rho = None

    def reference_rho(self) -> float:
        """Own power iteration on the base (computed once, outside timing)."""
        if self._rho is None:
            self._rho = self.graph.perron(RHO_TOL / 10)
            recorded = FAMILY_RHO.get(self.sizes)
            if recorded is not None and abs(self._rho - recorded) > 1e-6:
                raise RuntimeError(f"reference rho {self._rho} != recorded {recorded}")
        return self._rho

    def jobs(self, workdir: Path, pass_no: int) -> Iterator[Job]:
        src, power = str(workdir / "family.hg"), str(workdir / "power.hg")
        col = str(workdir / "family.col")
        tol = repr(RHO_TOL)
        yield Job("rho", "rho", ["rho", src, "--tol", tol], self._check_rho)
        yield Job("rho_power", "rho_power", ["rho", power, "--tol", tol], self._check_rho)
        yield Job("verify_2", "verify", ["verify-coloring", src, "--coloring", col, "--ell", "2"],
                  lambda code, out: self._check_verify(2, code, out))
        yield Job("verify_4", "verify", ["verify-coloring", src, "--coloring", col, "--ell", "4"],
                  lambda code, out: self._check_verify(4, code, out))

    def _check_rho(self, code: int, out: str) -> list[str]:
        """The s=2 power keeps the base's Perron value (y_u = x_v^(1/s)), so
        both runs must match the reference within the requested tolerance."""
        if code != 0:
            return [f"exit {code}, expected 0"]
        try:
            rho = float(parse_fields(out)["rho"])
        except (KeyError, ValueError):
            return ["no rho in output"]
        if abs(rho - self.reference_rho()) > RHO_TOL:
            return [f"rho {rho!r} differs from reference {self.reference_rho()!r}"]
        return []

    def _check_verify(self, ell: int, code: int, out: str) -> list[str]:
        if code != 0:
            return [f"exit {code}, expected 0"]
        verdict, _, rest = out.strip().partition(", max_deviation = ")
        try:
            deviation = float(rest)
        except ValueError:
            return [f"unparsable verdict {out.strip()!r}"]
        valid = self.graph.sums_ok(self.coloring, ell)
        if valid != (ell == 2) or verdict != ("valid" if valid else "invalid"):
            return [f"verdict {verdict!r} at l = {ell}, own edge sums say valid={valid}"]
        if valid and not deviation < 1e-12:
            return [f"deviation {deviation} for a valid coloring"]
        return []


class SweepSmall(Workload):
    name = "sweep_small"
    why = ("scripted counterexample sweep over ~50 small random hypergraphs: "
           "interpreter start and import dominate each job")
    command_metrics = {}

    def setup(self, workdir: Path) -> None:
        pool = sweep_pool()
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if [entry["digest"] for entry in golden["graphs"]] != [digest(g) for g in pool]:
            raise RuntimeError(f"sweep pool differs from {GOLDEN_PATH.name}; re-record it")
        rng = random.Random(f"{self.name}/{self.seed}")
        self.cases = []
        for t, count in zip(SWEEP_UNIFORMITIES, SWEEP_PICK[self.small]):
            members = [i for i, g in enumerate(pool) if g.t == t]
            for i in rng.sample(members, count):
                graph = pool[i].relabel(permutation(rng, pool[i].n))
                path = workdir / f"sweep_{len(self.cases)}.hg"
                graph.write(path)
                self.cases.append((graph, path, golden["graphs"][i]))

    def jobs(self, workdir: Path, pass_no: int) -> Iterator[Job]:
        seen: dict[int, int] = {}
        for number, (graph, path, gold) in enumerate(self.cases):
            expected = (gold["cyclic_index"], gold["power_cyclic_index"])

            def analyze(code, out, graph=graph, number=number, gold=gold):
                problems = check_analyze(graph, gold["cyclic_index"], code, out)
                seen[number] = parse_analyze(out)[2]
                return problems

            def conjecture(code, out, number=number, expected=expected):
                return check_conjecture(2, expected, code, out, seen.get(number))

            yield Job(f"analyze_{number}", "analyze", ["analyze", str(path)], analyze)
            yield Job(f"conjecture_{number}", "conjecture_s2",
                      ["conjecture", str(path), "--s", "2"], conjecture)


WORKLOADS = {w.name: w for w in (FamilyK1, SpectralK1, SweepSmall)}
