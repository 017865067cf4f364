#!/usr/bin/env python3
"""Benchmark of the hypersym command line: time-to-verdict and per-layer tracing.

    python3 bench/run.py --workload family_k1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1       # every workload in turn

A single-process, closed-loop load generator with one client. `--trace 0` runs
one `python -m hypersym.cli` child at a time on inputs made from the
seed, for `--seconds` seconds (always at least one full pass over the
workload's job list), times each child from outside, takes each child's
peak RSS from wait4, and checks each job's output (see workloads.py).
`--trace 1` calls `hypersym.cli.main(argv)` in-process for the same jobs,
untraced and then traced, and reports per-layer metrics (see tracer.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when any check failed
and 2 when the program under src/ cannot be run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = workloads.BENCH_DIR.parent
SRC = ROOT / "src"
WORK = workloads.BENCH_DIR / ".work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
RUN_LIMIT_S = 170.0  # hard cap for one benchmark process; children are killed past it

# (metric, unit) on every workload: the ones BENCHMARK.json lists, then the
# ones only printed. Job percentiles mix commands of very different length
# on family_k1 and spectral_k1, so they are steady on sweep_small alone; the
# failed share is 0 on a correct program (failures go to `failed`).
END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
PRINTED_ONLY = [("job_p50_s", "s"), ("job_p90_s", "s"), ("failed_share", "share")]


class Unrunnable(Exception):
    """The program or the benchmark's own data is missing or broken."""


@dataclass
class Sample:
    key: str
    kind: str
    seconds: float
    rss_mb: float
    problems: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # children keep a bytecode cache, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], cwd: Path, timeout: float) -> tuple[int, float, float, str]:
    """Run one child to completion: (exit code, seconds, peak RSS in MB, stdout)."""
    out_path = cwd / "child.out"
    with open(out_path, "wb") as out, open(cwd / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = out_path.read_text("utf-8", errors="replace")
    return proc.returncode, elapsed, usage.ru_maxrss / 1024, output


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "hypersym.cli", *args]


def call_main(main, args: list[str]) -> int:
    """In-process CLI call; a crash counts like a child's nonzero exit."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the program's bug must fail the job, not the benchmark
        traceback.print_exc()
        return 1


def checked(job: workloads.Job, code: int, out: str) -> list[str]:
    try:
        return job.check(code, out)
    except (ValueError, KeyError, IndexError, OSError) as err:
        return [f"check raised {type(err).__name__}: {err}"]


class Runner:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.started = time.perf_counter()

    def remaining(self) -> float:
        return max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.started))

    def probe(self, code: str, cwd: Path) -> float:
        status, seconds, _, _ = run_child([sys.executable, "-c", code], cwd, self.remaining())
        if status != 0:
            raise Unrunnable(f"`python -c {code!r}` exited {status}")
        return seconds

    def setup(self, workload: workloads.Workload, workdir: Path) -> float:
        """Median of several set-ups: write the inputs and start the program once."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload.setup(workdir)
            self.probe("import hypersym.cli", workdir)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def measure(self, workload: workloads.Workload, workdir: Path) -> tuple[dict, list[Sample]]:
        samples: list[Sample] = []
        start = time.perf_counter()
        pass_no = 0
        while pass_no == 0 or time.perf_counter() - start < self.args.seconds:
            for job in workload.jobs(workdir, pass_no):
                if pass_no and time.perf_counter() - start >= self.args.seconds:
                    break
                code, seconds, rss, out = run_child(cli_argv(job.args), workdir, self.remaining())
                samples.append(Sample(job.key, job.kind, seconds, rss, checked(job, code, out)))
            pass_no += 1
        by_key: dict[str, list[float]] = {}
        by_kind: dict[str, list[float]] = {}
        for s in samples:
            by_key.setdefault(s.key, []).append(s.seconds)
            by_kind.setdefault(s.kind, []).append(s.seconds)
        times = sorted(s.seconds for s in samples)
        metrics = {
            # one pass over the job list, each job at its median
            "wall_s": sum(statistics.median(v) for v in by_key.values()),
            "job_p50_s": statistics.median(times),
            "job_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1]
            if len(times) > 1 else times[0],
            "peak_rss_mb": max(s.rss_mb for s in samples),
            "failed_share": sum(bool(s.problems) for s in samples) / len(samples),
        }
        for kind, name in workload.command_metrics.items():
            metrics[name] = statistics.median(by_kind[kind])
        return metrics, samples

    def traced(self, workload: workloads.Workload,
               workdir: Path) -> tuple[dict, list[Sample], list[str]]:
        """Rounds of one untraced and one traced in-process pass, while time allows.

        A pass's wall time is the sum of its `main` calls, without the checks.
        """
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        try:
            import hypersym.cli as cli
        except ImportError as err:
            raise Unrunnable(f"cannot import hypersym.cli from {SRC}: {err}") from err
        samples: list[Sample] = []
        rounds: list[dict[str, float]] = []
        start = time.perf_counter()
        pass_no = 0
        while not rounds or (time.perf_counter() - start) * (1 + 1 / len(rounds)) \
                < self.args.seconds:
            walls = {}
            trace = tracer.Tracer()
            # alternate which pass goes first, so warm-up does not favour one side
            for active in (False, True) if len(rounds) % 2 == 0 else (True, False):
                trace.job = 0
                if active:
                    trace.install()
                walls[active] = 0.0
                try:
                    for number, job in enumerate(workload.jobs(workdir, pass_no)):
                        trace.job = number
                        job_start = time.perf_counter()
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = call_main(cli.main, job.args)
                        seconds = time.perf_counter() - job_start
                        walls[active] += seconds
                        samples.append(Sample(job.key, job.kind, seconds, 0.0,
                                              checked(job, code, out.getvalue())))
                finally:
                    trace.uninstall()
                pass_no += 1
            layer = trace.summary()
            layer["trace.untraced_wall_s"] = walls[False]
            layer["trace.traced_wall_s"] = walls[True]
            layer["trace.overhead_s"] = walls[True] - walls[False]
            rounds.append(layer)
        metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
        metrics["cli.import_s"] = self.import_seconds(workdir)
        notes = [f"{name} (absent, zero calls)" for name in trace.absent]
        notes += [f"{name} (counters unreadable)" for name in sorted(trace.unreadable)]
        return metrics, samples, notes

    def import_seconds(self, workdir: Path) -> float:
        """Fresh-interpreter import of hypersym.cli minus a bare start (medians)."""
        bare, full = [], []
        for _ in range(IMPORT_REPEATS):
            bare.append(self.probe("pass", workdir))
            full.append(self.probe("import hypersym.cli", workdir))
        return statistics.median(full) - statistics.median(bare)

    def run(self, workload: workloads.Workload) -> tuple[dict, list[Sample], list[str]]:
        workdir = WORK / f"{workload.name}-{os.getpid()}"
        try:
            setup_s = self.setup(workload, workdir)
            if self.args.trace:
                metrics, samples, notes = self.traced(workload, workdir)
            else:
                metrics, samples = self.measure(workload, workdir)
                metrics["setup_s"] = setup_s
                notes = []
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()
        return metrics, samples, notes


def units(workload: workloads.Workload, trace: bool) -> dict[str, str]:
    if trace:
        return dict(tracer.PER_LAYER)
    named = dict(END_TO_END + PRINTED_ONLY)
    named.update({name: "s" for name in workload.command_metrics.values()})
    return named


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="(6,6,4) family and 8 sweep graphs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "hypersym" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'hypersym'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runner = Runner(args)
    results = {}
    try:
        for name in names:
            workload = workloads.WORKLOADS[name](args.seed, args.small)
            results[name] = (workload, *runner.run(workload))
    except (Unrunnable, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    attempted = failed = 0
    final: dict[str, dict] = {}
    for name, (workload, metrics, samples, notes) in results.items():
        bad = [s for s in samples if s.problems]
        attempted += len(samples)
        failed += len(bad)
        print(f"[{name}] seed={args.seed} jobs={len(samples)} failed={len(bad)} "
              f"trace={args.trace}  -- {workload.why}")
        for s in bad[:10]:
            print(f"  FAILED {s.key}: {'; '.join(s.problems)}", file=sys.stderr)
        named = units(workload, bool(args.trace))
        for metric, unit in named.items():
            print(f"  {metric:44s} {metrics[metric]:>14.6g} {unit}")
        for note in notes:
            print(f"  note: {note}")
        keep = dict(tracer.PER_LAYER if args.trace else END_TO_END)
        for metric, unit in named.items():
            if len(names) > 1 or metric in keep:
                label = f"{name}.{metric}" if len(names) > 1 else metric
                final[label] = {"value": metrics[metric], "unit": unit}

    context = {
        "git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "setup_repeats": SETUP_REPEATS,
        "import_repeats": IMPORT_REPEATS, "jobs": attempted,
    }
    print("context " + json.dumps(context))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
