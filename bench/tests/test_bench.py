"""Tests of the benchmark itself: checker, generator, tracer and contract.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import check
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# --- checker ---------------------------------------------------------------

EXTENSION = next(j for j in workloads.make("generic", 0) if j.name == "extension")
GOOD = {
    "command": "module.extension",
    "grid": [{"a": "1/5", "b": "5/7", "decided": True, "dimension": 0, "equations": 1816, "inconclusive": False, "unknowns": 474}],
}


def _bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def test_checker_passes_a_clean_execution_and_ignores_added_fields():
    frozen = check.answer(GOOD)
    assert check.failures(EXTENSION, check.Outcome(0, _bytes(GOOD), b""), None, frozen) == []
    extended = {**GOOD, "coverage": {"checked": 12}, "grid": [{**GOOD["grid"][0], "pairs_skipped": 3}]}
    assert check.failures(EXTENSION, check.Outcome(0, _bytes(extended), b""), None, frozen) == []


def test_checker_fails_a_corrupted_answer():
    corrupted = {**GOOD, "grid": [{**GOOD["grid"][0], "dimension": 1}]}
    reasons = check.failures(EXTENSION, check.Outcome(0, _bytes(corrupted), b""), None, check.answer(GOOD))
    assert "answer differs from the frozen answer" in reasons
    assert "nonzero extension space on an irreducible member" in reasons
    # the invariant alone catches it at any other seed
    assert check.failures(EXTENSION, check.Outcome(0, _bytes(corrupted), b""), None) == [
        "nonzero extension space on an irreducible member"
    ]


def test_checker_fails_changed_bytes():
    reference = _bytes(GOOD)
    changed = reference.replace(b'"equations": 1816', b'"equations":  1816')
    assert json.loads(changed) == json.loads(reference)
    reasons = check.failures(EXTENSION, check.Outcome(0, changed, b""), reference)
    assert reasons == ["report bytes differ from the first execution"]


def test_checker_fails_a_traceback_a_wrong_exit_code_and_a_timeout():
    trace = b'Traceback (most recent call last):\n  File "x", line 1\nKeyError: 1\n'
    reasons = check.failures(EXTENSION, check.Outcome(1, b"", trace), None)
    assert "exit code 1, expected 0" in reasons
    assert "stderr output: KeyError: 1" in reasons
    assert "stdout is not one JSON report" in reasons
    assert check.failures(EXTENSION, check.Outcome(0, trace + _bytes(GOOD), b""), None)[0] == "traceback on stdout"
    assert check.failures(EXTENSION, check.Outcome(-9, b"", b"", timed_out=True), None) == ["timed out"]


def test_checker_invariants_per_tag():
    singular = next(j for j in workloads.make("degenerate", 5) if j.name == "verma-n1-d10")
    report = {"command": "verma.singular", "singular": [{"depth": d, "vector": []} for d in range(1, 10)]}
    assert check.invariant_errors(singular, report) == ["no singular vector at depths [10] although lambda_n = 0"]
    absent = next(j for j in workloads.make("degenerate", 5) if j.name == "intertwiner-absent")
    assert check.invariant_errors(absent, {"command": "module.intertwiner", "found": True}) == ["intertwiner found at integer a"]
    lemmas_strict = workloads.make("lemmas", 0)[1]
    assert lemmas_strict.exit_code == 1


# --- generator -------------------------------------------------------------


def _flag(job: workloads.Job, flag: str) -> list[Fraction]:
    return [Fraction(v) for v in job.argv[job.argv.index(flag) + 1].split(",")]


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 123456])
def test_generator_is_deterministic_and_keeps_the_workload_invariants(seed):
    for workload in workloads.WORKLOADS:
        assert workloads.make(workload, seed) == workloads.make(workload, seed)
        names = [job.name for job in workloads.make(workload, seed)]
        assert len(names) == len(set(names))

    for job in workloads.make("generic", seed):
        if job.argv[0] == "verma":
            assert all(v != 0 for v in _flag(job, "--lam"))
        else:
            assert all(a.denominator != 1 for a in _flag(job, "--a"))

    for job in workloads.make("degenerate", seed):
        if job.argv[0] == "verma":
            lam = _flag(job, "--lam")
            assert lam[-1] == 0 and all(v != 0 for v in lam[:-1])
        elif job.name == "intertwiner-found":
            assert _flag(job, "--a")[0].denominator != 1
        else:
            assert all(a.denominator == 1 for a in _flag(job, "--a"))
            assert set(_flag(job, "--b")) <= {0, 1}


def test_seeds_change_values_but_not_sizes():
    a, b = workloads.make("generic", 1), workloads.make("generic", 2)
    assert [j.argv for j in a] != [j.argv for j in b]
    strip = {"--lam", "--c", "--a", "--b"}

    def sizes(job):
        return [t for i, t in enumerate(job.argv) if t not in strip and job.argv[i - 1] not in strip]

    assert [sizes(j) for j in a] == [sizes(j) for j in b]
    assert workloads.make("sweep", 1) == workloads.make("sweep", 2)


# --- tracer ----------------------------------------------------------------


def test_tracer_self_time_and_recursive_counters():
    t = tracer.Tracer("unit")
    leaf = t.counter("leaf", lambda: time.sleep(0.02))

    def recursive(n):
        return recursive_c(n - 1) if n else 0

    recursive_c = t.counter("recursive", recursive)
    inner = t.span("inner", lambda: leaf())

    def outer():
        leaf()
        inner()
        return recursive_c(4)

    t.span("outer", outer)()
    stats = t.stats()
    assert stats["recursive"]["calls"] == 5
    assert stats["leaf"]["calls"] == 2
    assert [(s["name"], s["parent"]) for s in t.spans] == [("outer", None), ("inner", 0)]
    # outer's children cover both leaf calls (one through inner), inner's own
    # time and the outermost recursive call
    covered = stats["leaf"]["s"] + stats["inner"]["self_s"] + stats["recursive"]["s"]
    assert stats["outer"]["s"] - stats["outer"]["self_s"] == pytest.approx(covered, abs=1e-9)
    assert stats["outer"]["self_s"] < 0.01 and stats["inner"]["self_s"] < 0.01


SMALL_JOBS = [
    # one small job per layer
    ("algebra", ["axioms", "--variant", "B", "--degree", "2", "--level", "1", "--format", "json"], "algebra.bracket_terms"),
    ("linalg", ["module", "--family", "Aab", "--a", "1/2", "--b", "1", "--to-b", "0", "--range", "-4:4", "intertwiner", "--format", "json"], "linalg.row_reduce"),
    ("modules", ["module", "--family", "Aab", "--a", "0,1/2", "--b", "1", "--range", "-4:4", "irreducible", "--format", "json"], "modules.submodule_closure"),
    ("verma", ["verma", "--n", "1", "--depth", "3", "--lam", "1/2,0", "singular", "--format", "json"], "verma.normal_order"),
    ("identities", ["lemmas", "--format", "json"], "multipoly.mul"),
]


def _child(mode: str, argv: list[str], out: Path) -> tuple[bytes, dict]:
    env = dict(run.child_env(), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, "test", str(out), "--", *argv],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.stderr == b""
    return proc.stdout, json.loads(out.read_text())


@pytest.mark.parametrize("layer,argv,busy", SMALL_JOBS, ids=[j[0] for j in SMALL_JOBS])
def test_traced_call_counts_equal_cprofile_counts(tmp_path, layer, argv, busy):
    traced_out, traced = _child("trace", argv, tmp_path / "trace.json")
    profiled_out, profiled = _child("profile", argv, tmp_path / "profile.json")
    plain = subprocess.run([sys.executable, "-m", "blocklie.cli", *argv], capture_output=True, env=run.child_env(), cwd=ROOT, timeout=120)
    assert traced_out == profiled_out == plain.stdout
    traced_calls = {name: st["calls"] for name, st in traced["stats"].items()}
    assert traced_calls == profiled["calls"]
    assert traced_calls[busy] > 0
    assert traced_calls["cli.main"] == 1
    assert 0 < profiled["fraction_self_s"] < profiled["total_self_s"]


# --- contract --------------------------------------------------------------


class _StubRunner(run.Runner):
    """Executions without children: fixed timings and an empty trace."""

    def __init__(self):
        pass

    def setup(self) -> float:
        return 0.2

    def execute(self, job, mode):
        measured = {"stats": {}, "fraction_self_s": 1.0, "total_self_s": 2.0}
        return run.Execution(check.Outcome(0, b"", b""), 1.0, 0.9, 20.0, measured)


def test_benchmark_json_matches_the_harness():
    spec = run.load_spec()
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

    jobs = workloads.make("lemmas", 0)
    values = run.end_to_end(_StubRunner(), jobs, 0)
    # one pass of two jobs at 1.0 s wall, 0.9 s CPU and 20 MB each
    assert values == {"wall_s": 2.0, "cpu_s": 1.8, "setup_s": 0.2, "peak_rss_mb": 20.0}
    assert set(values) == {m["name"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["per_layer"]]
    assert set(run.per_layer(_StubRunner(), jobs, 0, names)) == set(names)
    targets = {t.name for t in tracer.TARGETS}
    for name in names:
        target, _ = run.RENAMED.get(name) or name.rsplit(".", 1)
        assert name in run.PER_RUN or target in targets, name

    answers = run.load_answers()
    for workload in workloads.WORKLOADS:
        assert sorted(answers[workload]) == sorted(j.name for j in workloads.make(workload, workloads.DEFAULT_SEED))


def test_harness_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lemmas", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
    assert not any(p.name.startswith(".bench_run-") for p in tmp_path.iterdir())
