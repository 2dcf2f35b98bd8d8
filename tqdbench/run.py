"""Benchmark of tqdstab: fixed job lists through the library's public entry
points, every answer checked against known values and golden answers.

Run from the repository root:

    python3 tqdbench/run.py --workload degeneracy --seed 1 --seconds 25 --trace 0

Each job runs in a fresh interpreter, as one CLI call would, so no job sees
state an earlier job left behind. With ``--trace 0`` the job list is run
repeatedly for ``--seconds`` and each job's time is its best over the
passes. With ``--trace 1`` one untraced pass is followed by two traced
passes in the orders of two different seeds; their answers and every count
must agree exactly. Metric names and units are those of BENCHMARK.json; the
last line of stdout is one JSON object with keys correct, attempted, failed
and metrics. tqdbench/README.md describes every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import REPORTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_trace"
SETUP_REPEATS = 15
MIN_PASSES = 3
# No pass starts that would likely end after BUDGET_S, and every worker is
# killed at HARD_LIMIT_S, so a run ends within 180 s.
BUDGET_S = 150.0
HARD_LIMIT_S = 175.0


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise BenchError(message)


class Runner:
    """Runs jobs in worker processes and keeps the failure tally."""

    def __init__(self, env: dict, golden: dict):
        self.env = env
        self.golden = golden
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def job(self, job: dict, trace: bool, spans: Path | None) -> dict | None:
        """One job in a fresh worker: its report, or None if it failed."""
        cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
        if trace:
            cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.attempted += 1
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"job {job['id']} did not finish in time")
        if proc.returncode != 0:
            reason = f"worker exited {proc.returncode}: {proc.stderr[-500:]}"
            report = None
        else:
            report = json.loads(proc.stdout.splitlines()[-1])
            reason = self._verify(job, report)
        if reason is not None:
            self.failures.append(f"{job['id']}: {reason}")
            return None
        return report

    def _verify(self, job: dict, report: dict) -> str | None:
        if report["error"] is not None:
            return report["error"]
        answer = report["answer"]
        for key, value in job["known"].items():
            if answer.get(key) != value:
                return f"{key} is {answer.get(key)!r}, known to be {value!r}"
        if answer != self.golden[job["id"]]:
            return "answer differs from the golden answer"
        return None

    def run_pass(self, jobs: list[dict], trace: bool = False,
                 spans_dir: Path | None = None) -> dict | None:
        """Job id -> report for one pass over the list; None if any failed."""
        reports = {}
        for job in jobs:
            spans = spans_dir / f"{job['id']}.jsonl" if spans_dir else None
            reports[job["id"]] = self.job(job, trace, spans)
        if any(r is None for r in reports.values()):
            return None
        return reports


def measure_setup(runner: Runner) -> float:
    """Median time from a fresh interpreter to `import tqdstab.cli` done.

    The first import writes the bytecode and is not timed.
    """
    cmd = [sys.executable, "-c", "import tqdstab.cli"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=runner.env,
                              capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t0
        check(proc.returncode == 0,
              f"import tqdstab.cli failed: {proc.stderr[-500:]}")
        if i:
            samples.append(dt)
    return statistics.median(samples)


def _wall_s(reports: dict) -> float:
    return sum(r["ns"] for r in reports.values()) / 1e9


def untraced(runner: Runner, workload: str, seed: int,
             seconds: float) -> dict:
    """End-to-end metrics from passes over the job list for `seconds`,
    at least MIN_PASSES of them.

    Load from other tenants of a shared machine only ever adds time, so each
    job's time is its best over the passes, as timeit reports.
    """
    rng = random.Random(seed)
    largest = workloads.WORKLOADS[workload]["largest"]
    metrics = {"setup_s": measure_setup(runner)}
    times: dict[str, list[float]] = {}
    rss_kib = 0
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reports = runner.run_pass(workloads.plan(workload, rng))
        if reports is None:
            return {}
        for job_id, report in reports.items():
            times.setdefault(job_id, []).append(report["ns"] / 1e9)
            rss_kib = max(rss_kib, report["rss_kib"])
        now = time.monotonic()
        passes = len(times[largest])
        if ((passes >= MIN_PASSES and now - t_start >= seconds)
                or runner.elapsed() + (now - t0) > BUDGET_S):
            break
    metrics["wall_s"] = sum(min(ts) for ts in times.values())
    metrics["largest_job_s"] = min(times[largest])
    metrics["peak_rss_mib"] = rss_kib / 1024
    return metrics


def _aggregate(reports: dict) -> dict:
    """Per-stat fields summed over the jobs of a pass (_max fields: max)."""
    out: dict[str, dict] = {}
    for report in reports.values():
        for stat, fields in report["layers"].items():
            agg = out.setdefault(stat, {})
            for field, value in fields.items():
                if field.endswith("_max"):
                    agg[field] = max(agg.get(field, 0), value)
                else:
                    agg[field] = agg.get(field, 0) + value
    return out


def _counts(layers: dict) -> dict:
    return {stat: {f: v for f, v in fields.items() if not f.endswith("_ns")}
            for stat, fields in layers.items()}


def traced(runner: Runner, workload: str, seed: int) -> tuple[dict, list]:
    """Per-layer metrics and the list of failed consistency checks."""
    plan = workloads.plan
    untraced_pass = runner.run_pass(plan(workload, random.Random(seed)))
    spans_dir = SPANS_DIR / workload
    spans_dir.mkdir(parents=True, exist_ok=True)
    first = runner.run_pass(plan(workload, random.Random(seed)),
                            trace=True, spans_dir=spans_dir)
    second = runner.run_pass(plan(workload, random.Random(seed + 1)),
                             trace=True)
    if untraced_pass is None or first is None or second is None:
        return {}, []

    problems = []
    for job_id in first:
        a, b = first[job_id], second[job_id]
        if _counts(a["layers"]) != _counts(b["layers"]):
            problems.append(f"{job_id}: traced counts differ between seeds "
                            f"{seed} and {seed + 1}")
        for report in (a, b):
            self_ns = sum(f["self_ns"] for f in report["layers"].values())
            if self_ns > report["ns"]:
                problems.append(f"{job_id}: per-layer self times sum to more "
                                "than the job's wall time")

    # Counts agree between the passes; times are the better of the two.
    layers = [_aggregate(first), _aggregate(second)]
    metrics = {}
    for stat, fields in REPORTED.items():
        for field in fields:
            if field.endswith("_s"):
                raw = field[:-2] + "_ns"
                metrics[f"{stat}.{field}"] = min(
                    agg.get(stat, {}).get(raw, 0) / 1e9 for agg in layers)
            else:
                metrics[f"{stat}.{field}"] = layers[0].get(stat, {}).get(
                    field, 0)
    calls = metrics["lattice.string_operator.calls"]
    metrics["lattice.string_operator.distinct_ratio"] = (
        metrics["lattice.string_operator.distinct"] / calls if calls else 0.0)
    metrics["trace.overhead_ratio"] = (
        min(_wall_s(first), _wall_s(second)) / _wall_s(untraced_pass))
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "tqdstab" / "__init__.py").is_file():
        print(f"error: no tqdstab sources at {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    runner = Runner(env, golden)
    try:
        if args.trace:
            values, problems = traced(runner, args.workload, args.seed)
            section = "per_layer"
        else:
            values = untraced(runner, args.workload, args.seed, args.seconds)
            problems = []
            section = "end_to_end"
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared[section]}
    if values and set(values) != set(units):
        print("error: computed metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1

    for line in runner.failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    failed = len(runner.failures)
    print(f"{args.workload}: fail_ratio = {failed}/{runner.attempted} "
          f"= {failed / runner.attempted:.6g} failed/attempted")
    for name, value in values.items():
        print(f"{args.workload}: {name} = {value:.6g} {units[name]}")
    correct = not runner.failures and not problems and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
