#!/usr/bin/env python3
"""Record the sweep_small verdicts that the benchmark checks against.

Computes, with the library under src/ at the current commit, the cyclic
index and the s=2 power cyclic index of every graph in the benchmark's
sweep pool, and writes them to bench/golden_sweep.json. Run it only at a
commit whose verdicts are trusted (the file in the repo was recorded at
134f3db, the seed code); later commits are checked against that file.

    python3 bench/record_golden.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads

ROOT = workloads.BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from hypersym import build_hypergraph, conjecture_check, cyclic_index  # noqa: E402


def main() -> None:
    entries = []
    for graph in workloads.sweep_pool():
        lib_graph = build_hypergraph(graph.t, graph.n, (graph.edges + 1).tolist())
        report = conjecture_check(lib_graph, 2)
        if report.base_cyclic_index != cyclic_index(lib_graph).cyclic_index:
            raise SystemExit("conjecture and analyze disagree on the base index")
        entries.append({
            "digest": workloads.digest(graph),
            "uniform": graph.t,
            "vertices": graph.n,
            "edges": len(graph.edges),
            "cyclic_index": report.base_cyclic_index,
            "power_cyclic_index": report.power_cyclic_index,
        })
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip() or "unknown"
    golden = {"pool_seed": workloads.SWEEP_POOL_SEED, "recorded_at": commit,
              "graphs": entries}
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} verdicts to {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
