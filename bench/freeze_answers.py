"""Freeze the answers of every workload's jobs at the default seed.

    python3 bench/freeze_answers.py

Runs each job once and writes ``answers.json``, which ``run.py``
compares against whenever it runs at the default seed.  Refuses to
write when any execution fails its other checks.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import check
import workloads
from run import ANSWERS, ROOT, Runner


def main() -> int:
    answers = {}
    failed = 0
    with tempfile.TemporaryDirectory(prefix=".bench_run-", dir=ROOT) as scratch:
        for workload in workloads.WORKLOADS:
            runner = Runner(Path(scratch))
            answers[workload] = {}
            for job in workloads.make(workload, workloads.DEFAULT_SEED):
                execution = runner.execute(job, None)
                answers[workload][job.name] = check.answer(json.loads(execution.outcome.stdout))
            failed += runner.failed
    if failed:
        print(f"{failed} executions failed; answers not written", file=sys.stderr)
        return 1
    with open(ANSWERS, "w", encoding="utf-8") as handle:
        json.dump(answers, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
