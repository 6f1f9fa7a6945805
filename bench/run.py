"""End-to-end and per-layer benchmark of the blocklie CLI.

    python3 bench/run.py --workload sweep|generic|degenerate|lemmas \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is the checkout's
``src/``.  Every job is a fresh ``python -m blocklie.cli ... --format
json`` child, one at a time (a closed loop with one client).  Children
run with ``BLOCKLIE_WORKERS`` unset and hash randomisation on.

``--trace 0`` repeats passes over the workload's jobs for about
``--seconds`` (at least one) and reports the end-to-end metrics as
medians over passes, with ``setup_s`` sampled before and between the
jobs.  ``--trace 1`` alternates untraced and traced passes for about
``--seconds`` (at least one pair), then makes one cProfile pass, and
reports the per-layer metrics.  Every execution is checked (see
``check.py``); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import check
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ANSWERS = BENCH_DIR / "answers.json"

SETUP_FIRST = 3  # set-up samples before the first pass; one more follows every job
JOB_TIMEOUT_S = 100.0
RUN_LIMIT_S = 170.0  # children still running then are killed as timed out
SETUP_CODE = "import blocklie.cli; blocklie.cli.build_parser()"

SPEC = ROOT / "BENCHMARK.json"  # metric names and units


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Execution:
    outcome: check.Outcome
    wall_s: float
    cpu_s: float
    rss_mb: float
    measured: dict | None = None  # the child's trace or profile summary


@dataclass
class Pass:
    executions: list[Execution]

    @property
    def wall_s(self) -> float:
        return sum(e.wall_s for e in self.executions)

    @property
    def cpu_s(self) -> float:
        return sum(e.cpu_s for e in self.executions)

    @property
    def peak_rss_mb(self) -> float:
        return max(e.rss_mb for e in self.executions)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("BLOCKLIE_WORKERS", "PYTHONHASHSEED")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Spawns children one at a time and checks every execution."""

    def __init__(self, scratch: Path, frozen: dict | None = None):
        self.scratch = scratch
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.env = child_env()
        self.frozen = frozen  # job name -> answer, at the default seed only
        self.references: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def spawn(self, cmd: list[str]) -> tuple[check.Outcome, float, float, float]:
        """Run one child to exit; returns its outcome, wall, CPU and peak RSS."""
        with open(self.scratch / "stdout", "w+b") as out, open(self.scratch / "stderr", "w+b") as err:
            expired = []

            def expire() -> None:
                expired.append(True)
                proc.kill()

            start = perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(max(0.0, min(JOB_TIMEOUT_S, self.deadline - start)), expire)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            outcome = check.Outcome(proc.returncode, out.read(), err.read(), timed_out=bool(expired))
        return outcome, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def record(self, label: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            print(f"FAIL {label}: {'; '.join(reasons)}", file=sys.stderr)

    def setup(self) -> float:
        """Spawn-to-exit time of a child that only imports the CLI and builds its parser."""
        outcome, wall, _, _ = self.spawn([sys.executable, "-c", SETUP_CODE])
        reasons = []
        if outcome.timed_out or outcome.exit_code != 0 or outcome.stdout or outcome.stderr:
            reasons.append(f"exit code {outcome.exit_code}, {len(outcome.stdout)} stdout and {len(outcome.stderr)} stderr bytes")
        self.record("setup", reasons)
        return wall

    def execute(self, job: workloads.Job, mode: str | None) -> Execution:
        measured = None
        if mode is None:
            cmd = [sys.executable, "-m", "blocklie.cli", *job.argv]
        else:
            summary = self.scratch / "summary.json"
            summary.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, job.name, str(summary), "--", *job.argv]
        outcome, wall, cpu, rss = self.spawn(cmd)
        reference = self.references.get(job.name)
        if reference is None and mode is None:
            self.references[job.name] = outcome.stdout
        frozen = None if self.frozen is None else self.frozen.get(job.name, "no frozen answer")
        reasons = check.failures(job, outcome, reference, frozen)
        if mode is not None:
            try:
                with open(summary, encoding="utf-8") as handle:
                    measured = json.load(handle)
            except (OSError, ValueError) as exc:
                reasons.append(f"no {mode} summary: {exc}")
        self.record(f"{job.name} ({mode or 'untraced'})", reasons)
        return Execution(outcome, wall, cpu, rss, measured)

    def run_pass(self, jobs: list[workloads.Job], mode: str | None = None) -> Pass:
        return Pass([self.execute(job, mode) for job in jobs])


def _while_time_left(seconds: float, minimum: int, step):
    """Call ``step`` at least ``minimum`` times, then while another call fits in ``seconds``."""
    results, durations = [], []
    start = perf_counter()
    while len(results) < minimum or perf_counter() - start + statistics.mean(durations) <= seconds:
        began = perf_counter()
        results.append(step())
        durations.append(perf_counter() - began)
    return results


def sum_stats(executions: list[Execution]) -> dict[str, dict[str, float]]:
    total: dict[str, dict[str, float]] = {}
    for execution in executions:
        for target, stats in (execution.measured or {}).get("stats", {}).items():
            into = total.setdefault(target, {})
            for key, value in stats.items():
                into[key] = into.get(key, 0) + value
    return total


# per-layer metrics that are not "<tracer target>.<summed stat>"
PER_RUN = ("rationals.fraction_share", "trace.overhead")
RENAMED = {"reporting.report_bytes": ("reporting.dumps_report", "bytes"), "cli.self_s": ("cli.main", "self_s")}


def layer_values(names: list[str], stats: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except those measured per run."""
    def stat(target: str, key: str) -> float:
        return stats.get(target, {}).get(key, 0)

    values = {}
    for metric in names:
        if metric == "linalg.row_reduce.rank_per_row":
            rows = stat("linalg.row_reduce", "rows")
            values[metric] = stat("linalg.row_reduce", "rank") / rows if rows else 0.0
        elif metric not in PER_RUN:
            target, key = RENAMED.get(metric) or metric.rsplit(".", 1)
            values[metric] = stat(target, key)
    return values


def end_to_end(runner: Runner, jobs: list[workloads.Job], seconds: float) -> dict[str, float]:
    runner.setup()  # warm-up: fills the bytecode cache, as for any user after the first start
    setup = [runner.setup() for _ in range(SETUP_FIRST)]

    def one_pass() -> Pass:
        # a set-up sample after every job spreads the samples over the whole run
        executions = []
        for job in jobs:
            executions.append(runner.execute(job, None))
            setup.append(runner.setup())
        return Pass(executions)

    passes = _while_time_left(seconds, 1, one_pass)
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }


def per_layer(runner: Runner, jobs: list[workloads.Job], seconds: float, names: list[str]) -> dict[str, float]:
    pairs = _while_time_left(seconds, 1, lambda: (runner.run_pass(jobs), runner.run_pass(jobs, "trace")))
    profiled = runner.run_pass(jobs, "profile")
    traced = [layer_values(names, sum_stats(t.executions)) for _, t in pairs]
    values = {metric: statistics.median(v[metric] for v in traced) for metric in traced[0]}
    untraced_wall = statistics.median(u.wall_s for u, _ in pairs)
    values["trace.overhead"] = statistics.median(t.wall_s for _, t in pairs) / untraced_wall - 1
    fraction = sum(e.measured["fraction_self_s"] for e in profiled.executions if e.measured)
    total = sum(e.measured["total_self_s"] for e in profiled.executions if e.measured)
    values["rationals.fraction_share"] = fraction / total if total else 0.0
    return values


def load_answers() -> dict:
    with open(ANSWERS, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "blocklie" / "cli.py").is_file():
        print(f"error: no blocklie source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    metrics = load_spec()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    jobs = workloads.make(args.workload, args.seed)
    frozen = None
    if args.seed == workloads.DEFAULT_SEED:
        frozen = load_answers()[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench_run-", dir=ROOT) as scratch:
        runner = Runner(Path(scratch), frozen)
        if args.trace:
            values = per_layer(runner, jobs, args.seconds, list(units))
        else:
            values = end_to_end(runner, jobs, args.seconds)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
