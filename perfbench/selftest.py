"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs every workload's generator at toy sizes through the same jobs and output
checks as run.py, untraced and traced, and asserts that:

* the workloads, their reasons and every metric's name and unit agree with
  BENCHMARK.json, and every metric is printed by name with its unit;
* every output check passes;
* in each traced job the top-level spans, cli.self_s and
  process.outside_main_s add up to the job's run time;
* without the sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def _check_metrics(result: dict, lines: list[str], want: dict[str, str]) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics {got} differ from BENCHMARK.json {want}"
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    printed = {tuple(line.split()[::2]) for line in lines if not line.startswith("#")}
    for name, unit in want.items():
        assert (name, unit) in printed, f"{name} is not printed with its unit {unit}"


def _check_accounting(jobs) -> None:
    for job in (j for j in jobs if j.traced):
        parts = sum(job.top_level.values()) + job.layers["cli.self_s"] + job.layers["process.outside_main_s"]
        assert abs(parts - job.wall_s) < 1e-6, f"spans account for {parts} s of {job.wall_s} s"


def _check_without_sources() -> None:
    bare = run.ROOT / ".bench_build" / "perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "x", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the sources"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in WORKLOADS.values():
        for trace in (False, True):
            result, lines, jobs = run.measure(wl, seed=5, seconds=1, trace=trace, toy=True)
            assert result["correct"] and result["failed"] == 0, "\n".join(lines)
            assert len(jobs) >= 2
            _check_metrics(result, lines, want[trace])
            if trace:
                _check_accounting(jobs)
        print(f"selftest {wl.name}: ok")
    _check_without_sources()
    print("selftest without sources: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
