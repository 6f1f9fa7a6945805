"""Run one blocklie CLI job under the layer tracer or under cProfile.

    python bench/child.py trace|profile JOB_ID OUT.json -- <blocklie argv>

The report goes to stdout exactly as ``python -m blocklie.cli`` writes
it, and the exit code is the CLI's.  The measurements go to OUT.json
when the job ends: the spans and per-target stats for ``trace``, and
for ``profile`` the share of self time spent in ``fractions.py`` plus
the call count of every traced target.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys

import tracer


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_summary(profile: cProfile.Profile) -> dict:
    stats = pstats.Stats(profile).stats
    total = sum(entry[2] for entry in stats.values())
    fractions = sum(entry[2] for key, entry in stats.items() if key[0].endswith("fractions.py"))
    calls = {}
    for name, fn in tracer.originals().items():
        entry = stats.get(_code_key(fn))
        calls[name] = entry[1] if entry else 0
    return {"fraction_self_s": fractions, "total_self_s": total, "calls": calls}


def main() -> int:
    mode, job, out_path, sep, *argv = sys.argv[1:]
    if mode not in ("trace", "profile") or sep != "--":
        raise SystemExit("usage: child.py trace|profile JOB_ID OUT.json -- <blocklie argv>")
    from blocklie import cli

    if mode == "trace":
        trace = tracer.Tracer(job)
        tracer.install(trace)
        try:
            code = cli.main(argv)
        finally:
            summary = {"job": job, "spans": trace.spans, "stats": trace.stats()}
            with open(out_path, "w", encoding="utf-8") as handle:
                json.dump(summary, handle)
        return code

    profile = cProfile.Profile()
    profile.enable()
    try:
        code = cli.main(argv)
    finally:
        profile.disable()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"job": job, **profile_summary(profile)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
