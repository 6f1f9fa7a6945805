"""Fuzz: argument lists and --config files exit 0, 1 or 2, never with a traceback.

Each example draws an action and a value, or none, for each option in
``cli.OPTIONS`` that only some of the subcommand's actions read, so an
option often goes to an action that does not read it.  Sizes are drawn
small, zero and negative, and the size caps (``RANGE_WIDTH_CAP``,
``MODULE_MATRIX_CAP``, ``VERMA_SPACE_CAP``, ``VERMA_WORK_CAP``) are set,
per example, to what the drawn job counts (the run is at the cap), to
one less (the run is one above it) or left as they are.  So every
boundary is hit, and no run does more than a few milliseconds of work.
``tests/test_cli.py`` holds the counts against the real caps.

The second fuzz draws ``axioms`` and ``bracket`` jobs: variants that
parse or not, degrees, levels and --vir-degree small, zero or negative,
bracket operands in either JSON form with one key of the wrong type,
missing or unknown, and half the time a --config file of the
subcommand's keys, unknown ones and the parser's own, with values of
the right or the wrong JSON type.  ``AXIOM_KEY_CAP`` and
``VIR_DEGREE_CAP`` are set in the same way, from the counts of the
parsed job.

Every option, action and config key is read from ``cli.OPTIONS`` and
``cli.COMMANDS``.  An int option is drawn now and then in a spelling
that is not a canonical decimal ("1_0", " 1", "+1", "01"), and a job
that holds one exits 2.
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


def _options(command: str) -> dict:
    """The options of ``command`` in ``cli.OPTIONS``, each with the actions that read it (None: all)."""
    return {name: row[3] for name, row in cli.OPTIONS.items() if command in row[0]}


# int spellings that int() reads and the CLI refuses: each exits 2, typed or from a config file
NONCANONICAL = ["1_0", " 1", "+1", "01"]
# option values, the valid ones drawn more often: ints for the int options (and
# ones that the int reader refuses), rationals and grids otherwise
VALUES = {
    "pair_degree": ["1", "2", "4", "-1", "0", "x", *NONCANONICAL],
    "level_cap": ["0", "1", "3", "-1", "1.5", *NONCANONICAL],
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
    command = draw(st.sampled_from(["module", "verma"]))
    action = draw(st.sampled_from(cli.COMMANDS[command][2]))
    argv = [command]
    options = {}
    # the options the action reads, each half the time, and now and then one it does not read
    selective = {name: readers for name, readers in _options(command).items() if readers is not None}
    foreign = draw(st.sampled_from([None] * 6 + sorted(selective)))
    for option, readers in sorted(selective.items()):
        if option == foreign or (action in readers and draw(st.booleans())):
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
    assert code == 2 or not set(NONCANONICAL) & set(argv), what
    if code == 2:
        assert out == "" and [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:], what
    else:
        assert err == "" and out.endswith("\n"), what


# axioms and bracket: variants that parse_variant reads, and Q:m:n and other forms that it refuses
VARIANTS = ["B", "Vir", "Bbar", "W1inf", "Winf", "Q:0:1", "Q:1:2", "Q:0:0"]
BAD_VARIANTS = ["Q:2:1", "Q:-1:1", "Q:0:01", "Q:0", "b"]
# degrees and levels small, zero and negative, and values the int reader refuses
DEGREES = ["2", "1", "0", "-1", "2", "1", "x", *NONCANONICAL]
LEVELS = ["1", "2", "0", "-1", "1", "0", "1.5", *NONCANONICAL]
# the --vir-degree default reads 441 pairs, so the flag is drawn small and mostly given
VIR_DEGREES = ["2", "3", "2", "1", "0", "-1", "2", *NONCANONICAL, None, None]
# JSON values of the wrong type wherever an integer, a rational, a string or a list is read
_wrong = st.sampled_from([1.5, True, None, [], {}, [1], {"alpha": 1}, "1", "", "x"])
_small = st.integers(-3, 3)
_variants = st.sampled_from(VARIANTS * 2 + BAD_VARIANTS + VARIANTS)
_term = {"alpha": _small, "level": st.integers(-1, 2), "coeff": st.sampled_from(["1", "-1/2", "0", "1/0", 3])}
NOT_OPERANDS = ["{}", "[]", "3", "null", '"B"', "{", '{"terms": {}}', '{"alpha": 1, "terms": []}']


@st.composite
def _operand(draw, variant: str, defect: bool) -> str:
    """A bracket operand in ``variant``, the shorthand {"alpha", "level", "coeff"} or the element form
    {"variant", "terms", "central"}; with ``defect``, one key of it is of the wrong type, missing or
    unknown, or the operand is no such object."""
    if draw(st.booleans()):
        operand = draw(st.fixed_dictionaries({"alpha": _small}, optional={k: _term[k] for k in ("level", "coeff")}))
    else:
        operand = {"variant": variant, "terms": draw(st.lists(st.fixed_dictionaries(_term), max_size=2))}
        if draw(st.booleans()):
            operand["central"] = draw(st.sampled_from(["1", "0", "2/3"]))
    if defect:
        # an operand key, or a key of one of its terms
        holders = [operand] + operand.get("terms", [])
        holder = draw(st.sampled_from(holders))
        how = draw(st.sampled_from(["type", "missing", "unknown", "document"] if holder else ["unknown", "document"]))
        if how == "type":
            holder[draw(st.sampled_from(sorted(holder)))] = draw(_wrong)
        elif how == "missing":
            del holder[draw(st.sampled_from(sorted(holder)))]
        elif how == "unknown":
            holder["junk"] = 1
        else:
            return draw(st.sampled_from(NOT_OPERANDS))
    return json.dumps(operand)


def _mostly(valid):
    """A value of ``valid``, or one time in four a JSON value of the wrong type."""
    return st.one_of(valid, valid, valid, _wrong)


def _config_keys(command: str) -> list[str]:
    """--config keys for ``command``: its options, the parser's own names, an unknown key and another
    subcommand's option."""
    foreign = next(name for name, row in cli.OPTIONS.items() if command not in row[0])
    return [*_options(command), "command", "action", "nope", foreign]


_config_values = {
    "variant": _mostly(_variants) | _small,
    "degree": _mostly(_small | st.sampled_from(DEGREES)),
    "level": _mostly(_small | st.sampled_from(LEVELS)),
    "vir_degree": _mostly(st.integers(-1, 3) | st.sampled_from(VIR_DEGREES[:-2])),
    "format": _mostly(st.sampled_from(["json", "table", "xml"])),
    "out": _mostly(st.sampled_from(["report.json", "missing/report.json"])),
    "config": _mostly(st.just("config.json")),
    # bracket's argv always gives --x and --y, which win over these
    "x": _mostly(_operand("B", False)),
    "y": _mostly(_operand("B", True)),
}


@st.composite
def _other_jobs(draw):
    """argv, --config file content and cap boundaries for one axioms or bracket job."""
    command = draw(st.sampled_from(["axioms", "axioms", "bracket"]))
    argv = [command]
    variant = draw(_variants)
    if variant != "B" or draw(st.booleans()):
        argv += ["--variant", variant]
    if command == "axioms":
        argv += ["--degree", draw(st.sampled_from(DEGREES)), "--level", draw(st.sampled_from(LEVELS))]
        vir_degree = draw(st.sampled_from(VIR_DEGREES))
        if vir_degree is not None:
            argv += ["--vir-degree", vir_degree]
    else:
        defective = draw(st.sampled_from([None, None, "x", "y"]))
        for name in ("x", "y"):
            argv += [f"--{name}", draw(_operand(variant, defective == name))]
    config = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(_config_keys(command)), max_size=3, unique=True))
        config = {key: draw(_config_values.get(key, _small)) for key in keys}
        if draw(st.sampled_from([False] * 5 + [True] + [False] * 4)):
            config = draw(st.sampled_from([[], 3, "axioms", False]))  # not a JSON object
        argv += ["--config", "config.json"]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv, config, draw(st.sampled_from(BOUNDARIES)), draw(st.sampled_from(BOUNDARIES))


def _run(argv):
    with redirect_stdout(io.StringIO()) as stdout, redirect_stderr(io.StringIO()) as stderr:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed value
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


# each axioms cap, the caps that make its check refuse any count, and the refusal that names the count
AXIOM_CAPS = [
    ("AXIOM_KEY_CAP", {"AXIOM_KEY_CAP": -(10**9)}, r"axiom window of (-?\d+) keys exceeds"),
    ("VIR_DEGREE_CAP", {"AXIOM_KEY_CAP": 10**9, "VIR_DEGREE_CAP": -(10**9)}, r"--vir-degree (-?\d+) exceeds"),
]


def _capped(handler, boundaries, caps):
    """``handler`` run with each axioms cap set at its boundary of the count that its refusal names.

    The counts are read from the parsed arguments, after the --config
    file is merged, so the job is parsed once.  ``caps`` records the caps set.
    """

    def run(args):
        with pytest.MonkeyPatch.context() as patch:
            for (name, probe, refusal), boundary in zip(AXIOM_CAPS, boundaries):
                with pytest.MonkeyPatch.context() as probing:
                    for cap, value in probe.items():
                        probing.setattr(cli, cap, value)
                    try:
                        handler(args)
                        found = None
                    except (cli.UsageError, ValueError) as exc:  # refused at the cap, or before it
                        found = re.search(refusal, str(exc))
                if found:
                    caps[name] = _cap(boundary, int(found.group(1)), getattr(cli, name))
                    patch.setattr(cli, name, caps[name])
            return handler(args)

    return run


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_other_jobs())
def test_axioms_bracket_and_config_exit_0_1_or_2_without_a_traceback(tmp_path_factory, job):
    argv, config, *boundaries = job
    if config is not None:
        base = tmp_path_factory.mktemp("job")
        if isinstance(config, dict):
            config = {k: str(base / v) if isinstance(v, str) and v.endswith(".json") else v for k, v in config.items()}
        (base / "config.json").write_text(json.dumps(config))
        argv = [str(base / token) if token.endswith(".json") else token for token in argv]
    caps = {}
    with pytest.MonkeyPatch.context() as patch:
        handler, *rest = cli.COMMANDS["axioms"]
        patch.setitem(cli.COMMANDS, "axioms", (_capped(handler, boundaries, caps), *rest))
        code, out, err = _run(argv)
    what = (argv, config, caps, err)
    assert code in (0, 1, 2), what
    assert "Traceback" not in out + err, what
    spellings = set(argv) | {v for v in (config.values() if isinstance(config, dict) else ()) if isinstance(v, str)}
    assert code == 2 or not set(NONCANONICAL) & spellings, what
    if err:
        # a refusal, or a report that cannot be written (exit 1)
        assert code in (1, 2) and out == "", what
        assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:], what
    else:
        assert code in (0, 1) and out.endswith("\n"), what
