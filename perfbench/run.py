"""Closed-loop batch benchmark of the role-forge pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --describe [--seed N]

One client runs one job at a time; a job is the workload's sequence of
role-forge invocations, each a fresh process (perfbench/invoke.py) that calls
`roleforge.cli.main`.  Inputs are generated once per run from the seed,
outside timing.  Jobs repeat until the next one would end after S seconds
(two jobs at least), every job's outputs are checked, and the last line of
standard output is one JSON object with the metrics: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1.  A traced run alternates
untraced and traced jobs, so the tracing overhead is measured in the same run.
Everything is written under .bench_build/perfbench/ and removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import PER_LAYER, job_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_JOBS = 2
DEADLINE_S = 170.0
THREAD_ENV = ("ROLE_FORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Reported with --trace 0, in this order.
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("modularity_q", "Q"))
# Printed on every run for the workloads that produce them, and enforced by
# the output checks, but not in the JSON: they are undefined on some workloads.
QUALITY = (("db_index", "index"), ("connector_share", "ratio"),
           ("capitalist_precision", "ratio"), ("capitalist_recall", "ratio"))
# ...and recorded as per-layer metrics of a traced run.
QUALITY_LAYER = {"clustering.db_index": "db_index", "clustering.connector_share": "connector_share",
                 "capitalists.precision": "capitalist_precision", "capitalists.recall": "capitalist_recall"}


@dataclass
class Job:
    traced: bool
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    attempted: int
    failures: list[tuple[str, str]]
    quality: dict
    digest: str
    layers: dict | None = None
    top_level: dict | None = None

    @property
    def failed(self) -> int:
        return len({label for label, _ in self.failures})


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": openblas,
            "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ}}


def run_job(wl, inp, job_dir: Path, traced: bool, deadline: float, first_digest: str | None) -> Job:
    from workloads import Outcome

    job_dir.mkdir(parents=True)
    wall = setup = peak_kb = 0.0
    failures: list[tuple[str, str]] = []
    stdout: dict[str, str] = {}
    span_lists = []
    invocations = wl.invocations(inp, job_dir)
    for label, argv in invocations:
        stats_path = job_dir / f"{label}.stats.json"
        cmd = [sys.executable, str(HERE / "invoke.py"), str(stats_path), "1" if traced else "0",
               *map(str, argv)]
        out_path, err_path = job_dir / f"{label}.out", job_dir / f"{label}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.monotonic()
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=err, cwd=ROOT,
                                    timeout=max(1.0, deadline - t0)).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            wall += time.monotonic() - t0
        stdout[label] = out_path.read_text()
        if rc != 0 or not stats_path.is_file():
            tail = err_path.read_text()[-2000:]
            print(f"# {wl.name} {label} failed (rc={rc}):\n{tail}", file=sys.stderr)
            failures.append((label, f"exited with {rc}"))
            continue
        stats = json.loads(stats_path.read_text())
        setup += stats["imported"] - t0
        peak_kb = max(peak_kb, stats["peak_rss_kb"])
        span_lists.append(stats["spans"])
    try:
        outcome = wl.check(inp, job_dir, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        outcome = Outcome(failures=[(invocations[-1][0], f"output check raised {exc!r}")])
    failures += outcome.failures
    if first_digest is not None and outcome.digest != first_digest:
        failures.append((invocations[-1][0], "outputs differ from the first job's at the same seed"))
    job = Job(traced, wall, setup, peak_kb / 1024, len(invocations), failures, outcome.quality,
              outcome.digest)
    if traced:
        job.layers, job.top_level = job_layers(span_lists, wall, inp.lines)
    return job


def closed_loop(wl, inp, work: Path, seconds: float, trace: bool, deadline: float) -> list[Job]:
    jobs: list[Job] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(jobs) % 2 == 1
        t0 = time.monotonic()
        job = run_job(wl, inp, work / f"job{len(jobs)}", traced, deadline,
                      jobs[0].digest if jobs else None)
        shutil.rmtree(work / f"job{len(jobs)}", ignore_errors=True)
        jobs.append(job)
        now = time.monotonic()
        longest = max(longest, now - t0)
        for label, reason in job.failures:
            print(f"# job {len(jobs)} check failed [{label}]: {reason}", file=sys.stderr)
        if now + longest > deadline or (len(jobs) >= MIN_JOBS and now + longest > start + seconds):
            return jobs


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _layer_of(span_name: str) -> str:
    return span_name.split(".")[0]


def summarize(jobs: list[Job], trace: bool) -> tuple[dict, list[str]]:
    """(metrics for the JSON line, human-readable lines)."""
    plain = [j for j in jobs if not j.traced]
    lines = []
    e2e = {
        "run_s": _median(j.wall_s for j in plain),
        "setup_s": _median(j.setup_s for j in plain),
        "peak_rss_mb": _median(j.peak_rss_mb for j in plain),
        "modularity_q": _median(j.quality["modularity_q"] for j in jobs if "modularity_q" in j.quality),
    }
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    shown = dict(e2e)
    shown.update({name: _median(j.quality[name] for j in jobs)
                  for name, _ in QUALITY if all(name in j.quality for j in jobs)})
    shown["failed_share"] = failed / attempted
    units = dict(END_TO_END + QUALITY + (("failed_share", "ratio"),))
    lines += [f"{name:<24} {value:.6g} {units[name]}" for name, value in shown.items()]
    if not trace:
        return {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}, lines

    traced = [j for j in jobs if j.traced]
    computed = {"trace.overhead_s", *QUALITY_LAYER}
    layers = {name: _median(j.layers[name] for j in traced) for name, _ in PER_LAYER if name not in computed}
    layers["trace.overhead_s"] = _median(j.wall_s for j in traced) - e2e["run_s"]
    for layer_name, name in QUALITY_LAYER.items():
        layers[layer_name] = shown.get(name, 0.0)
    lines += [f"{name:<40} {layers[name]:.6g} {unit}" for name, unit in PER_LAYER]
    # Top-level spans + cli.self_s + process.outside_main_s add up to each traced job's run_s.
    for j in traced:
        by_layer: dict[str, float] = {}
        for name, secs in j.top_level.items():
            by_layer[_layer_of(name)] = by_layer.get(_layer_of(name), 0.0) + secs
        by_layer["cli"] = by_layer.get("cli", 0.0) + j.layers["cli.self_s"]
        by_layer["process"] = j.layers["process.outside_main_s"]
        parts = " + ".join(f"{k} {v:.3f}" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1]))
        largest = max((k for k in by_layer if k != "process"), key=by_layer.get)
        lines.append(f"# traced job run_s {j.wall_s:.3f} = {parts}; largest layer: {largest}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}, lines


def measure(wl, seed: int, seconds: float, trace: bool, toy: bool = False):
    """Run one workload; returns (the JSON result, human-readable lines, jobs)."""
    from workloads import make_inputs

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_build" / "perfbench" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inp = make_inputs(wl, seed, work / "inputs", toy=toy)
        jobs = closed_loop(wl, inp, work, seconds, trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, lines = summarize(jobs, trace)
    header = [f"# workload {wl.name}: {wl.why}",
              f"# input {json.dumps(inp.record)}",
              f"# environment {json.dumps(environment())}"]
    header += [f"# job {i + 1} {'traced' if j.traced else 'untraced'}: {j.wall_s:.3f} s, setup "
               f"{j.setup_s:.3f} s, peak {j.peak_rss_mb:.1f} MB, {j.failed}/{j.attempted} failed"
               for i, j in enumerate(jobs)]
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, header + lines, jobs


def describe(seed: int) -> dict:
    """Every workload's generated input at this seed, and the environment."""
    from workloads import WORKLOADS, make_inputs

    work = ROOT / ".bench_build" / "perfbench" / f"describe-{os.getpid()}"
    record = {"environment": environment(), "workloads": {}}
    try:
        for name, wl in WORKLOADS.items():
            inp = make_inputs(wl, seed, work / name)
            record["workloads"][name] = {"why": wl.why, **inp.record}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--describe", action="store_true", help="print the inputs and environment as JSON")
    args = p.parse_args(argv)
    if not (SRC / "roleforge" / "cli.py").is_file():
        print(f"error: no roleforge sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.describe:
        print(json.dumps(describe(args.seed), indent=2))
        return 0
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, lines, _ = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
