"""Fuzz: ``module`` and ``verma`` argument lists exit 0, 1 or 2, never with a traceback.

Each example draws an action and a value, or none, for each option of
``cli.OPTION_READERS`` that the subcommand has, so an option often goes
to an action that does not read it.  Sizes are drawn small, zero and
negative, and the size caps (``RANGE_WIDTH_CAP``, ``MODULE_MATRIX_CAP``,
``VERMA_SPACE_CAP``, ``VERMA_WORK_CAP``) are set, per example, to what
the drawn job counts (the run is at the cap), to one less (the run is
one above it) or left as they are.  So every boundary is hit, and no
run does more than a few milliseconds of work.  ``tests/test_cli.py``
holds the counts against the real caps.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blocklie import cli, verma  # noqa: E402
from blocklie.cli import main  # noqa: E402

PARSER_OPTIONS = {
    "module": {"pair_degree", "level_cap", "to_b"},
    "verma": {"lam", "c", "lambda_file"},
}
ACTIONS = {
    "module": ["check", "irreducible", "intertwiner", "extension", "spanning", "classify"],
    "verma": ["dims", "singular"],
}
# option values, the valid ones drawn more often: ints for the int options (and
# one that argparse refuses), rationals and grids otherwise
VALUES = {
    "pair_degree": ["1", "2", "4", "-1", "0", "x"],
    "level_cap": ["0", "1", "3", "-1", "1.5"],
    "to_b": ["1", "2", "2", "0,1", "x"],
    "lam": ["1/2,0", "1/2,0", "0", "0,-1/3,0", "1/0", ""],
    "c": ["0", "-2", "1/3", "c"],
    "lambda_file": ["lambda-1.json", "lambda-1.json", "missing.json"],
}
LAMBDA_FILE = {"lambda": ["1/2", "0"], "c": "1/3"}
# the cap boundary each example takes: at the drawn job's count, one below it, or the real cap
BOUNDARIES = ["at", "at", "above", "real", "real"]


def _module_count(action: str, lo: int, hi: int, level_cap: int) -> int:
    """The count ``_check_module_size`` holds against the cap, read from its refusal at cap 0."""
    with pytest.MonkeyPatch.context() as patch, pytest.raises(cli.UsageError) as refusal:
        patch.setattr(cli, "MODULE_MATRIX_CAP", 0)
        cli._check_module_size(action, lo, hi, level_cap)
    return int(re.search(r" stores (\d+) matrices and unknowns", str(refusal.value)).group(1))


def _cap(boundary: str, count: int, real: int) -> int:
    return {"at": count, "above": count - 1, "real": real}[boundary]


@st.composite
def _jobs(draw):
    """argv and the caps to set for one module or verma job."""
    command = draw(st.sampled_from(sorted(ACTIONS)))
    action = draw(st.sampled_from(ACTIONS[command]))
    argv = [command]
    options = {}
    # the options the action reads, each half the time, and now and then one it does not read
    foreign = draw(st.sampled_from([None] * 6 + sorted(PARSER_OPTIONS[command])))
    for option, readers in sorted(cli.OPTION_READERS.items()):
        if option == foreign or (option in PARSER_OPTIONS[command] and action in readers and draw(st.booleans())):
            options[option] = draw(st.sampled_from(VALUES[option]))
            argv += ["--" + option.replace("_", "-"), options[option]]
    caps = {}
    if command == "module":
        lo, width = draw(st.integers(-4, 1)), draw(st.sampled_from([3, 4, 5, 6, 1, 2, 0, -1]))
        if action == "spanning" and draw(st.booleans()):
            lo, width = -8, 17  # the least window the spanning check takes
        hi = lo + width - 1
        argv += ["--a", draw(st.sampled_from(["1/2", "0", "1", "1/2", "1/2,1"]))]
        argv += ["--b", draw(st.sampled_from(["2", "0", "1", "2", "0,1"]))]
        argv += ["--range", f"{lo}:{hi}", action]
        level_cap = options.get("level_cap", "2")
        if lo <= hi and re.fullmatch(r"\d+", level_cap):
            caps["RANGE_WIDTH_CAP"] = _cap(draw(st.sampled_from(BOUNDARIES)), width, cli.RANGE_WIDTH_CAP)
            count = _module_count(action, lo, hi, int(level_cap))
            caps["MODULE_MATRIX_CAP"] = _cap(draw(st.sampled_from(BOUNDARIES)), count, cli.MODULE_MATRIX_CAP)
    else:
        n, depth = draw(st.integers(-1, 2)), draw(st.integers(-1, 4))
        argv += ["--n", str(n), "--depth", str(depth), action]
        if n >= 0 and depth >= 0:
            space = verma.partition_dimensions(n, depth)[depth]
            caps["VERMA_SPACE_CAP"] = _cap(draw(st.sampled_from(BOUNDARIES)), space, cli.VERMA_SPACE_CAP)
            caps["VERMA_WORK_CAP"] = _cap(draw(st.sampled_from(BOUNDARIES)), (n + 1) * depth * space, cli.VERMA_WORK_CAP)
    return argv, caps


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_jobs())
def test_module_and_verma_arguments_exit_0_1_or_2_without_a_traceback(tmp_path_factory, job):
    argv, caps = job
    base = tmp_path_factory.getbasetemp()
    lambda_file = base / "lambda-1.json"
    if not lambda_file.exists():
        lambda_file.write_text(json.dumps(LAMBDA_FILE))
    argv = [str(base / token) if token.endswith(".json") else token for token in argv]
    with pytest.MonkeyPatch.context() as patch:
        for name, value in caps.items():
            patch.setattr(cli, name, value)
        with redirect_stdout(io.StringIO()) as stdout, redirect_stderr(io.StringIO()) as stderr:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a malformed value
                code = exc.code
    out, err = stdout.getvalue(), stderr.getvalue()
    what = (argv, caps, err)
    assert code in (0, 1, 2), what
    assert "Traceback" not in out + err, what
    if code == 2:
        assert out == "" and [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:], what
    else:
        assert err == "" and out.endswith("\n"), what
