"""Answer checker and failure accounting for benchmark jobs.

A job execution fails on a wrong exit code, any stderr output or
traceback, a timeout, a report that is not one JSON document, report
bytes that differ from the reference execution of the same job, an
answer that differs from the frozen answer of the default seed, or a
broken seed-independent invariant.  Only answer fields are compared
with the frozen answers, so fields a later report adds do not count as
failures.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from workloads import Job


@dataclass
class Outcome:
    """What one child process left behind."""

    exit_code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool = False


def answer(report: dict):
    """The answer fields of a canonical report, keyed by command."""
    command = report["command"]
    if command in ("axioms", "module.check"):
        return {"violations": report["violations"], "passed": report["passed"]}
    if command == "verma.singular":
        counts = Counter(entry["depth"] for entry in report["singular"])
        return {"singular_per_depth": {str(d): counts[d] for d in sorted(counts)}}
    if command == "module.extension":
        return {
            "grid": [
                {key: entry[key] for key in ("a", "b", "dimension", "decided", "inconclusive")}
                for entry in report["grid"]
            ]
        }
    if command == "module.irreducible":
        return {"agree": [entry["agree"] for entry in report["grid"]], "passed": report["passed"]}
    if command == "module.intertwiner":
        return {"found": report["found"]}
    if command == "module.spanning":
        return {"passed": report["passed"]}
    if command == "module.classify":
        return {"verdict": report["verdict"]["verdict"]}
    if command == "lemmas":
        return {"statuses": {r["claim"]: [r["status"], r["passed"]] for r in report["reports"]}}
    raise ValueError(f"no answer fields known for command {command!r}")


def invariant_errors(job: Job, report: dict) -> list[str]:
    """Properties that hold for every seed, by the job's ``expect`` tag."""
    expect = job.expect
    errors = []
    if expect == "axioms":
        if report["violations"] or not report["passed"]:
            errors.append("axiom sweep reported violations")
    elif expect == "irreducible":
        if not all(entry["agree"] for entry in report["grid"]):
            errors.append("irreducibility brute force disagrees with the criterion")
    elif expect == "extension-zero":
        if any(entry["dimension"] != 0 for entry in report["grid"]):
            errors.append("nonzero extension space on an irreducible member")
    elif expect == "singular-every-depth":
        depths = {entry["depth"] for entry in report["singular"]}
        deepest = int(job.argv[job.argv.index("--depth") + 1])
        missing = [d for d in range(1, deepest + 1) if d not in depths]
        if missing:
            errors.append(f"no singular vector at depths {missing} although lambda_n = 0")
    elif expect == "intertwiner-found":
        if not report["found"]:
            errors.append("no intertwiner found at non-integer a")
    elif expect == "intertwiner-absent":
        if report["found"]:
            errors.append("intertwiner found at integer a")
    elif expect is not None:
        raise ValueError(f"unknown invariant {expect!r}")
    return errors


def failures(job: Job, outcome: Outcome, reference: bytes | None, frozen=None) -> list[str]:
    """Reasons this execution failed; empty when it passed.

    ``reference`` is the stdout of the job's first execution in the run
    (None for the first execution itself); ``frozen`` is the job's frozen
    answer, given only at the default seed.
    """
    if outcome.timed_out:
        return ["timed out"]
    reasons = []
    if outcome.exit_code != job.exit_code:
        reasons.append(f"exit code {outcome.exit_code}, expected {job.exit_code}")
    if outcome.stderr:
        last = (outcome.stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
        reasons.append(f"stderr output: {last[:200]}")
    if b"Traceback (most recent call last)" in outcome.stdout:
        reasons.append("traceback on stdout")
    if reference is not None and outcome.stdout != reference:
        reasons.append("report bytes differ from the first execution")
    try:
        report = json.loads(outcome.stdout)
    except ValueError:
        return reasons + ["stdout is not one JSON report"]
    try:
        if frozen is not None and answer(report) != frozen:
            reasons.append("answer differs from the frozen answer")
        reasons += invariant_errors(job, report)
    except (KeyError, TypeError) as exc:
        reasons.append(f"report lacks answer field {exc}")
    return reasons
