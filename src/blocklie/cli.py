"""Batch command-line front end.

Subcommands: bracket, axioms, module, verma, lemmas, classify.  Every
path is a thin composition of library calls; no computation lives only
here.  Each option is declared once, in OPTIONS (its subcommands,
reader, default and the module or verma actions that read it); the
parser, the --config merge and the check that the chosen action reads
every given option come from it.  Flags are not abbreviated.  A JSON
config file (--config) can predefine option values: its keys are the
subcommand's option names with "_" for "-" (vir_degree, level_cap,
module_file, ...), its values JSON strings or integers, each read by
the flag's own reader (a JSON integer as its decimal, so 3 and "3"
alike), and explicit flags win over the file.  A required option may
come from the file.  An unknown key (config too), a boolean, a float or
a value for --strict, which can only be typed, exits 2.  Reports are
emitted as canonical JSON (byte-identical across reruns of the same
configuration) and as text.

Exit codes: 0 when every requested check passes, 1 when a check fails
or (under --strict) a lemma report records a discrepancy, 2 for usage
errors (a flag the chosen action would not read, an irreducible window
too narrow to decide), malformed inputs, sizes above AXIOM_KEY_CAP,
VIR_DEGREE_CAP, VERMA_SPACE_CAP, VERMA_WORK_CAP, RANGE_WIDTH_CAP or
MODULE_MATRIX_CAP, and a stdout closed by its reader before the report
was written (an error line, no traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebra, identities, modules, verma, windows
from .rationals import check_keys, format_rational, parse_rational, read_int, read_int_key
from .reporting import dumps_report, render_table, write_report


class UsageError(Exception):
    pass


# size caps, far above every documented size: an axiom window of n keys
# tabulates a few n^2 brackets and checks n^3/6 Jacobi triples,
# vir_consistency at degree d compares (2d+1)^2 pairs, a Verma depth space
# of N monomials is the column count of its singular-vector system (deep
# n = 0 spaces past 1000 take seconds), and a module window of N indices
# carries about 2N action matrices per index.
# VERMA_WORK_CAP bounds the (n+1)*depth*N actions that check the depth-d
# singular vectors of Q:0:n (9,620 at n = 1, depth 10, the largest in use);
# MODULE_MATRIX_CAP bounds the matrices and unknowns one module job stores
# (2,155 for extension on -20:20 at level cap 2, the largest in use).
AXIOM_KEY_CAP = 500
VIR_DEGREE_CAP = 1000
VERMA_SPACE_CAP = 1000
VERMA_WORK_CAP = 100_000
RANGE_WIDTH_CAP = 500
MODULE_MATRIX_CAP = 50_000


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (read_int_key(p, "range bound") for p in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"malformed range {text!r}, expected lo:hi") from exc
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    _check_width(lo, hi)
    return lo, hi


def _check_width(lo: int, hi: int) -> None:
    if hi - lo + 1 > RANGE_WIDTH_CAP:
        raise UsageError(f"range '{lo}:{hi}' of {hi - lo + 1} indices exceeds the cap of {RANGE_WIDTH_CAP} indices")


def _parse_operand(text: str, variant) -> algebra.AlgebraElement:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"operand is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "terms" in data:
        element = algebra.AlgebraElement.from_json(data)
        if element.variant != variant:
            raise UsageError(f"operand variant {element.variant} differs from --variant {variant}")
        return element
    if isinstance(data, dict) and "alpha" in data:
        check_keys(data, ("alpha", "level", "coeff"))
        alpha = read_int(data["alpha"], "operand field 'alpha'")
        level = read_int(data.get("level", 0), "operand field 'level'")
        coeff = parse_rational(data.get("coeff", "1"))
        return algebra.AlgebraElement(variant, {algebra.BasisKey(alpha, level): coeff})
    raise UsageError("operand JSON needs either an 'alpha' field or full element form with 'terms'")


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from exc


def _cmd_bracket(args: argparse.Namespace) -> tuple[dict, str, int]:
    variant = algebra.parse_variant(args.variant)
    x = _parse_operand(args.x, variant)
    y = _parse_operand(args.y, variant)
    result = algebra.bracket(x, y)
    return {"command": "bracket", "variant": str(variant), "result": result.to_json()}, repr(result), 0


def _cmd_axioms(args: argparse.Namespace) -> tuple[dict, str, int]:
    variant = algebra.parse_variant(args.variant)
    degree, level = args.degree, args.level
    # the window's key count, known before any key is built
    n = (2 * degree + 1) * len(algebra.level_range(variant, level))
    if n > AXIOM_KEY_CAP:
        raise UsageError(f"axiom window of {n} keys exceeds the cap of {AXIOM_KEY_CAP} keys")
    if args.vir_degree > VIR_DEGREE_CAP:
        raise UsageError(f"--vir-degree {args.vir_degree} exceeds the cap of {VIR_DEGREE_CAP}")
    violations = algebra.verify_algebra_axioms(variant, degree, level)
    consistency = algebra.vir_consistency(args.vir_degree)
    passed = not violations and consistency["homomorphism"] and consistency["quotient_matches"]
    # the sweep checks every pair x <= y and every triple x <= y <= z of the window
    checked = {"keys": n, "pairs": n * (n + 1) // 2, "triples": n * (n + 1) * (n + 2) // 6}
    payload = {
        "command": "axioms",
        "config": {"variant": str(variant), "degree": degree, "level": level},
        "checked": checked,
        "violations": violations,
        "vir_consistency": consistency,
        "passed": passed,
    }
    rows = [
        {"check": "algebra-axioms", "result": "ok" if not violations else f"{len(violations)} violations"},
        {"check": "checked", "result": f"{n} keys, {checked['pairs']} pairs, {checked['triples']} triples"},
        {"check": "vir-consistency", "result": f"c0={consistency['c0']}" if consistency["homomorphism"] else "failed"},
    ]
    return payload, render_table(rows, ["check", "result"]), 0 if passed else 1


def _parameter_grid(text: str) -> list:
    values = [parse_rational(part) for part in text.split(",") if part.strip()]
    if not values:
        raise UsageError(f"empty parameter grid {text!r}")
    return values


def _spec_grid(args: argparse.Namespace) -> list[modules.IntermediateSpec]:
    grid_a = _parameter_grid(args.a)
    if args.family == "Aab":
        return [modules.IntermediateSpec("Aab", a, b) for a in grid_a for b in _parameter_grid(args.b)]
    if {"b", "to_b"} & args.given:
        raise UsageError(f"--b and --to-b are parameters of family Aab, not {args.family}")
    return [modules.IntermediateSpec(args.family, a) for a in grid_a]


def _check_module_size(action: str, lo: int, hi: int, level_cap: int) -> None:
    """Refuse a job that can store over MODULE_MATRIX_CAP matrices and unknowns, before any window is built.

    Matrices are built on first use, so this is an upper bound.  A window
    of N indices has N^2 action matrices: one for L_i, |i| < N, at each
    of its N - |i| sources.  check and classify extend it trivially with
    one copy per level 0 .. 2*level_cap, intertwiner builds a second
    window, and extension adds one 1x1 unknown per level 1 .. level_cap,
    degree a of EXTENSION_BAND and source in interior(lo, hi, a).  The
    count is per grid member.
    """
    width = hi - lo + 1
    count = width * width
    if action in ("check", "classify"):
        count += (2 * level_cap + 1) * width * width
    elif action == "intertwiner":
        count += width * width
    elif action == "extension":
        count += level_cap * sum(len(windows.interior(lo, hi, a)) for a in modules.EXTENSION_BAND)
    if count > MODULE_MATRIX_CAP:
        raise UsageError(
            f"module {action} on {lo}:{hi} at level cap {level_cap} stores {count} matrices and unknowns,"
            f" above the cap of {MODULE_MATRIX_CAP}"
        )


def _grid_report(grid: list[modules.IntermediateSpec], member) -> tuple[list[dict], str]:
    """The entries and text lines of ``member(spec)``, one (fields, line) per grid member."""
    entries, lines = [], []
    for spec in grid:
        fields, line = member(spec)
        entries.append({"a": str(spec.a), "b": str(spec.b), **fields})
        lines.append(f"a={spec.a} b={spec.b}: {line}" if len(grid) > 1 else line)
    return entries, "\n".join(lines)


def _cmd_module(args: argparse.Namespace) -> tuple[dict, str, int]:
    lo, hi = _parse_range(args.range)
    action, level_cap = args.action, args.level_cap
    grid = _spec_grid(args)
    if level_cap < 0:
        raise UsageError(f"need --level-cap >= 0, got {level_cap}")
    _check_module_size(action, lo, hi, level_cap)
    if action == "irreducible":
        def member(spec):
            verdict = modules.irreducible_verdict(spec, lo, hi)
            return verdict, f"bruteforce={str(verdict['bruteforce']).lower()} criterion={str(verdict['criterion']).lower()}"

        verdicts, text = _grid_report(grid, member)
        passed = all(v["agree"] for v in verdicts)
        return {"command": "module.irreducible", "grid": verdicts, "passed": passed}, text, 0 if passed else 1
    if action == "extension":
        def member(spec):
            report = modules.extension_space(modules.build_window(spec, lo, hi), level_cap)
            if report.equations == 0:
                raise UsageError(f"range {lo}:{hi} at level cap {level_cap} gives no extension equations")
            fields = {
                "dimension": report.dimension,
                "inconclusive": report.inconclusive,
                "decided": report.quadratic_decided,
                "equations": report.equations,
                "unknowns": report.unknowns,
            }
            return fields, f"extension space dimension: {report.dimension}" + (" (inconclusive)" if report.inconclusive else "")

        results, text = _grid_report(grid, member)
        return {"command": "module.extension", "grid": results}, text, 0
    if len(grid) > 1:
        raise UsageError(f"action {action!r} takes single --a/--b values, not grids")
    spec = grid[0]
    window = modules.build_window(spec, lo, hi)
    if action == "check":
        if args.pair_degree < 1:
            raise UsageError(f"need --pair-degree >= 1, got {args.pair_degree}: a lower degree compares no two distinct generators")
        violations = modules.check_module_axioms(window, args.pair_degree)
        extended = modules.extend_trivially(window, level_cap)
        extra = [algebra.BasisKey(1, i) for i in range(1, level_cap + 1)]
        violations += modules.check_module_axioms(extended, args.pair_degree, extra_keys=extra)
        rows = [{"check": "module-axioms", "result": "ok" if not violations else "failed"}]
        payload = {"command": "module.check", "violations": violations, "passed": not violations}
        return payload, render_table(rows, ["check", "result"]), 0 if not violations else 1
    if action == "intertwiner":
        if args.to_b is None:
            raise UsageError("intertwiner needs --to-b for the target family member")
        other = modules.build_window(
            modules.IntermediateSpec("Aab", parse_rational(args.a), parse_rational(args.to_b)), lo, hi
        )
        found = modules.find_intertwiner(window, other)
        payload = {
            "command": "module.intertwiner",
            "found": found is not None,
            "blocks": None if found is None else {str(k): m.to_json() for k, m in sorted(found.items())},
        }
        return payload, "intertwiner found" if found is not None else "no invertible intertwiner", 0
    if action == "spanning":
        ok = modules.core_spanning_check(window)
        text = "core spans window" if ok else "core does not span window"
        return {"command": "module.spanning", "passed": ok}, text, 0 if ok else 1
    verdict = modules.classify_window(modules.extend_trivially(window, level_cap))  # the classify action
    return {"command": "module.classify", "verdict": verdict}, verdict["verdict"], 0


def _check_verma_size(n: int, depth: int) -> int:
    """Refuse a depth space above VERMA_SPACE_CAP monomials, before any basis is built.

    The depth-d space is nondecreasing in d, and the depth-1 space has
    one monomial per level, so counting the spaces of depths 1, 3, 7, ...
    with ``partition_dimensions`` stops after a few small counts.  Every
    count loops over the n + 1 levels, so n + 1 is capped first, at any
    depth.  Returns the size of the depth space.
    """
    if n + 1 > VERMA_SPACE_CAP:
        raise UsageError(f"depth-1 space of Q:0:{n} has {n + 1} monomials, above the cap of {VERMA_SPACE_CAP}")
    d, size = 0, 1
    while d < depth:
        d = min(2 * d + 1, depth)
        size = verma.partition_dimensions(n, d)[d]
        if size > VERMA_SPACE_CAP:
            raise UsageError(f"depth-{d} space of Q:0:{n} has {size} monomials, above the cap of {VERMA_SPACE_CAP}")
    return size


def _cmd_verma(args: argparse.Namespace) -> tuple[dict, str, int]:
    n, depth = args.n, args.depth
    if n < 0 or depth < 0:
        raise UsageError(f"need n >= 0 and depth >= 0, got n={n} and depth={depth}")
    space = _check_verma_size(n, depth)
    if args.action == "dims":
        report = verma.quasifinite_report(n, depth)
        payload = {"command": "verma.dims", "report": report, "passed": report["match"]}
        return payload, ", ".join(str(d) for d in report["dimensions"][1:]), 0 if report["match"] else 1
    if depth < 1:
        raise UsageError("singular vectors need depth >= 1, got depth=0")
    # each depth-d kernel vector is acted on by the (n+1)*d positive generators
    work = (n + 1) * depth * space
    if work > VERMA_WORK_CAP:
        raise UsageError(
            f"singular vectors of Q:0:{n} at depth {depth} need up to {n + 1}*{depth}*{space} = {work}"
            f" checking actions, above the cap of {VERMA_WORK_CAP}"
        )
    if args.lambda_file:
        if {"lam", "c"} & args.given:
            raise UsageError("--lambda-file gives lambda and c, so --lam and --c would go unread")
        lam = verma.WeightFunctional.from_json(_read_json(args.lambda_file, "lambda file"))
    else:
        values = tuple(parse_rational(v) for v in (args.lam if "lam" in args.given else "0," * n + "0").split(","))
        lam = verma.WeightFunctional(values, parse_rational(args.c))
    if lam.n != n:
        raise UsageError(f"lambda table has {lam.n + 1} entries but n={n} needs {n + 1}")
    found = []
    for d in range(1, depth + 1):
        for vec in verma.singular_vectors(lam, n, d):
            pairs = [[verma.monomial_repr(w), format_rational(c)] for w, c in sorted(vec.items())]
            found.append({"depth": d, "vector": pairs})
    generators_ok = verma.validate_positive_generators(n, depth + 2)
    payload = {
        "command": "verma.singular",
        "lambda": lam.to_json(),
        "singular": found,
        "positive_generators_validated_to_degree": depth + 2 if generators_ok else None,
    }
    return payload, f"singular vectors through depth {depth}: {len(found)}", 0 if generators_ok else 1


def _cmd_lemmas(args: argparse.Namespace) -> tuple[dict, str, int]:
    reports = identities.run_standard_suite()
    payload = {"command": "lemmas", "strict": args.strict, "reports": [r.to_json() for r in reports]}
    rows = [{"claim": r.claim, "status": r.status, "passed": r.passed} for r in reports]
    ok = all(r.passed for r in reports)
    if args.strict:
        ok = ok and all(r.status in (identities.STATUS_EXACT, identities.STATUS_NORMALIZED) for r in reports)
    return payload, render_table(rows, ["claim", "status", "passed"]), 0 if ok else 1


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, str, int]:
    window = windows.WindowedModule.from_json(_read_json(args.module_file, "module file"))
    _check_width(window.lo, window.hi)
    k = max(window.indices(), key=window.dims.get)  # classify spans whole weight spaces
    if window.dims[k] > VERMA_SPACE_CAP:
        raise UsageError(f"weight space {k} of dimension {window.dims[k]} exceeds the cap of {VERMA_SPACE_CAP}")
    verdict = modules.classify_window(window)
    return {"command": "classify", "verdict": verdict}, verdict["verdict"], 0


# each subcommand: its handler, its help line and the actions it takes
COMMANDS = {
    "bracket": (_cmd_bracket, "evaluate one bracket from JSON operands", ()),
    "axioms": (_cmd_axioms, "antisymmetry/Jacobi sweep and Virasoro consistency", ()),
    "module": (
        _cmd_module,
        "build and analyze intermediate-series windows",
        ("check", "irreducible", "intertwiner", "extension", "spanning", "classify"),
    ),
    "verma": (_cmd_verma, "truncated highest-weight module data", ("dims", "singular")),
    "lemmas": (_cmd_lemmas, "run the identity-verification suite", ()),
    "classify": (_cmd_classify, "classify a windowed module from its JSON file", ()),
}
EVERY = tuple(COMMANDS)
REQUIRED = object()


def _text(value, flag: str) -> str:
    return str(value)


def _int(value, flag: str) -> int:
    return read_int_key(str(value), flag)  # a JSON integer reads as its decimal: 3 and "3" alike


def _switch(value, flag: str) -> bool:
    if value is not True:  # argparse stores True for the typed switch; a config value is refused
        raise UsageError(f"{flag} can only be typed, not set from a config file")
    return value


# every option, once: name -> (subcommands, reader, default, actions, help).  A reader takes
# the typed string or the --config value and the flag; a tuple of choices is a reader too.
# ``actions`` are the module or verma actions that read the option, None for all of them.
OPTIONS = {
    "config": (EVERY, _text, None, None, "JSON file with default option values"),
    "out": (EVERY, _text, None, None, "write the canonical JSON report to this path"),
    "format": (EVERY, ("json", "table"), "table", None, None),
    "variant": (("bracket", "axioms"), _text, "B", None, None),
    "x": (("bracket",), _text, REQUIRED, None, None),
    "y": (("bracket",), _text, REQUIRED, None, None),
    "degree": (("axioms",), _int, 5, None, None),
    "level": (("axioms",), _int, 3, None, None),
    "vir_degree": (("axioms",), _int, 10, None, None),
    "family": (("module",), ("Aab", "Aa", "Ba"), "Aab", None, None),
    "a": (("module",), _text, "0", None, None),
    "b": (("module",), _text, "0", None, None),  # read by family Aab alone
    "to_b": (("module",), _text, None, ("intertwiner",), None),
    "range": (("module",), _text, "-8:8", None, None),
    "pair_degree": (("module",), _int, 4, ("check",), None),
    "level_cap": (("module",), _int, 2, ("check", "extension", "classify"), None),
    "n": (("verma",), _int, 1, None, None),
    "depth": (("verma",), _int, 3, None, None),
    "lambda_file": (("verma",), _text, None, ("singular",), None),
    "lam": (("verma",), _text, None, ("singular",), "comma-separated rational values for the degree-zero levels"),
    "c": (("verma",), _text, "0", ("singular",), "central charge for singular (default 0)"),
    "strict": (("lemmas",), _switch, False, None, None),
    "module_file": (("classify",), _text, REQUIRED, None, None),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read_options(args: argparse.Namespace) -> None:
    """Set each option of the subcommand to its --config value, then to its typed one, each read by its reader.

    ``args.given`` names the options given either way, for a handler that must tell them from defaults.
    """
    names = [name for name, row in OPTIONS.items() if args.command in row[0]]
    args.given = set()
    config = _read_json(args.config, "config file") if args.config else {}
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    for key, value in config.items():
        if key not in names or key == "config":
            raise UsageError(f"config key {key!r} is not an option of {args.command} that a config file can set")
        if type(value) not in (int, str):
            raise UsageError(f"config value of {key!r} must be a JSON string or integer, got {json.dumps(value)}")
    for name in names:
        _, reader, value, actions, _ = OPTIONS[name]
        for given in (v for v in (config.get(name), getattr(args, name)) if v is not None):
            if actions is not None and args.action not in actions:
                raise UsageError(f"{_flag(name)} is read only by the {'/'.join(actions)} action, not {args.action}")
            if isinstance(reader, tuple) and given not in reader:
                raise UsageError(f"{_flag(name)} must be one of {', '.join(reader)}, got {given!r}")
            value = given if isinstance(reader, tuple) else reader(given, _flag(name))
            args.given.add(name)
        if value is REQUIRED:
            raise UsageError(f"{args.command} needs {_flag(name)}, typed or from --config")
        setattr(args, name, value)


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join each value flag with its value ("--range=-4:4"), so that a value may start with "-", but not "--".

    In a subcommand with actions, an unknown flag is joined with a next token that starts
    with no "-" and is no action, so that argparse refuses the flag by name ("--ran=1:3")
    rather than reading its value as the action.
    """
    value_flags = {_flag(name) for name, row in OPTIONS.items() if row[1] is not _switch}
    known = {_flag(name) for name in OPTIONS} | {"--help", "--"}
    actions = COMMANDS[argv[0]][2] if argv and argv[0] in COMMANDS else ()
    out = []
    for token in argv:
        last = out[-1] if out else ""
        if last in value_flags:
            join = not token.startswith("--")
        else:
            join = last.startswith("--") and last not in known and "=" not in last
            join = join and bool(actions) and token not in actions and not token.startswith("-")
        if join:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocklie", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, actions) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line, allow_abbrev=False)
        for name, (commands, reader, _, _, help_text) in OPTIONS.items():
            if reader is _switch and command in commands:
                p.add_argument(_flag(name), action="store_true", default=None)
            elif command in commands:
                p.add_argument(_flag(name), choices=reader if isinstance(reader, tuple) else None, help=help_text)
        if actions:
            p.add_argument("action", choices=actions)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_normalize_argv(sys.argv[1:] if argv is None else list(argv)))
    try:
        _read_options(args)
        payload, text, code = COMMANDS[args.command][0](args)
        # the one place a report is written
        if args.out:
            write_report(payload, args.out)
        sys.stdout.write(dumps_report(payload) if args.format == "json" else text + "\n")
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; the interpreter's final flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
