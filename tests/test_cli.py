"""Command-line front end: outputs, exit codes, determinism, diagnostics."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from blocklie import algebra, cli, verma, windows
from blocklie.cli import main
from blocklie.modules import IntermediateSpec, build_window, extend_trivially


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_command(capsys):
    code, out, _ = run(
        capsys,
        "bracket", "--variant", "B",
        "--x", '{"alpha":2,"level":0}',
        "--y", '{"alpha":-2,"level":0}',
    )
    assert code == 0
    assert out.strip() == "-4*L_{0,0} + C"


def test_bracket_rejects_bad_operand(capsys):
    code, _, err = run(capsys, "bracket", "--variant", "B", "--x", '{"nope": 1}', "--y", '{"alpha":1}')
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize(
    "operand",
    [
        '{"alpha":2.5,"level":0}',
        '{"alpha":true,"level":0}',
        '{"variant":"B","terms":[{"alpha":true,"level":0,"coeff":"1"}]}',
    ],
)
def test_bracket_operand_alpha_must_be_an_integer(capsys, operand):
    # a float or a boolean must not be read as a nearby integer
    code, out, err = run(capsys, "bracket", "--variant", "B", "--x", operand, "--y", '{"alpha":-2,"level":0}')
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'alpha'" in err


def test_closed_stdout_exits_two_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before any read: every write fails with EPIPE
    argv = ["axioms", "--variant", "Q:0:1", "--degree", "2", "--level", "0", "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "blocklie.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["error: stdout was closed before the report was written"]


def test_module_irreducible_exit_zero_on_agreement(capsys):
    code, out, _ = run(
        capsys, "module", "--family", "Aab", "--a", "0", "--b", "1", "--range", "-8:8", "irreducible"
    )
    assert code == 0
    assert "bruteforce=false criterion=false" in out


def test_module_irreducibility_grid(capsys):
    code, out, _ = run(
        capsys, "module", "--family", "Aab", "--a", "0,1/2", "--b", "0,2", "--range", "-8:8", "irreducible"
    )
    assert code == 0
    assert out.count("bruteforce=") == 4
    assert "a=0 b=0: bruteforce=false criterion=false" in out
    assert "a=1/2 b=2: bruteforce=true criterion=true" in out


def test_module_grid_rejected_for_single_value_actions(capsys):
    code, _, err = run(
        capsys, "module", "--family", "Aab", "--a", "0,1", "--b", "2", "--range", "-8:8", "spanning"
    )
    assert code == 2
    assert "grids" in err


def test_module_negative_parameters(capsys):
    code, out, _ = run(
        capsys, "module", "--family", "Aab", "--a", "-3/2", "--b", "2", "--range", "-8:8", "irreducible"
    )
    assert code == 0
    assert "bruteforce=true criterion=true" in out


def test_verma_dims_output(capsys):
    code, out, _ = run(capsys, "verma", "--n", "1", "--depth", "3", "dims")
    assert code == 0
    assert out.strip() == "2, 5, 10"


def test_verma_singular_with_inline_lambda(capsys):
    code, out, _ = run(capsys, "verma", "--n", "1", "--depth", "2", "singular", "--lam", "1/2,2/3", "--c", "0")
    assert code == 0
    assert "singular vectors through depth 2: 0" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verma", "--n", "1", "--depth", "-1", "singular", "--lam", "1/2,0", "--c", "0"),
        ("verma", "--n", "1", "--depth", "-3", "dims"),
    ],
)
def test_verma_negative_depth_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: need n >= 0 and depth >= 0")


def test_verma_singular_unvalidated_generators_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(verma, "validate_positive_generators", lambda n, degree: False)
    code, out, err = run(
        capsys, "verma", "--n", "1", "--depth", "2", "singular", "--lam", "1/2,2/3", "--c", "0", "--format", "json"
    )
    assert code == 1
    assert json.loads(out)["positive_generators_validated_to_degree"] is None
    assert err == ""


def test_verma_singular_failed_kernel_check_is_an_error_not_a_traceback(capsys, monkeypatch):
    # L_{2,1} now fixes every monomial; it is outside the generating set, so the
    # system and its kernel are untouched and only the annihilation check sees it
    original = verma.VermaAction.act_generator

    def corrupted(self, alpha, level, word):
        return {word: 1} if (alpha, level) == (2, 1) else original(self, alpha, level, word)

    monkeypatch.setattr(verma.VermaAction, "act_generator", corrupted)
    code, out, err = run(capsys, "verma", "--n", "1", "--depth", "2", "singular", "--lam", "0,0", "--c", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: depth-2 kernel vector not annihilated by L_{2,")
    assert "Traceback" not in err


def test_verma_singular_depth_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "verma", "--n", "1", "--depth", "0", "singular", "--lam", "1/2,0", "--c", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: singular vectors need depth >= 1")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_empty_lam_is_refused_not_read_as_zero(tmp_path, capsys, monkeypatch, source):
    # a given --lam "" ran at lambda = 0 and exited 0, as if no --lam were given
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"lam": ""}')
    extra = ("--lam", "") if source == "flag" else ("--config", "cfg.json")
    assert run(capsys, "verma", "--n", "1", "--depth", "2", *extra, "singular") == (2, "", "error: malformed rational ''\n")


@pytest.mark.parametrize(
    "argv, config",
    [
        (("verma", "--n", "1", "--depth", "2", "--lam", "0e10000000,0", "singular"), None),
        (("verma", "--n", "1", "--depth", "2", "--lam", "1e10000000,0", "singular"), None),
        (("module", "--a", "1e5000", "--range", "-8:8", "classify"), None),
        (("verma", "--n", "1", "--depth", "2", "--config", "cfg.json", "singular"), '{"c": "1e-4300"}'),
    ],
    ids=["zero-lam", "lam", "module-a", "config-c"],
)
def test_a_huge_exponent_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, config):
    # "0e10000000" ran for seconds and exited 0; the others exited 2 only after building 10**exponent
    monkeypatch.chdir(tmp_path)
    if config:
        (tmp_path / "cfg.json").write_text(config)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: rational '") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verma", "--n", "1", "--depth", "2", "--lambda-file", "", "singular"), "--lambda-file"),
        (("lemmas", "--out", ""), "--out"),
        (("lemmas", "--config", ""), "--config"),
        (("classify", "--module-file", ""), "--module-file"),
    ],
    ids=["lambda-file", "out", "config", "module-file"],
)
def test_an_empty_path_is_refused_not_read_as_no_option(tmp_path, capsys, monkeypatch, argv, flag):
    # a given --lambda-file "" ran at lambda = 0, --out "" wrote no report and --config "" read no file, each exit 0
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: {flag} needs a file path, got an empty one\n")
    assert list(tmp_path.iterdir()) == []
    if flag != "--config":
        (tmp_path / "cfg.json").write_text(json.dumps({flag[2:].replace("-", "_"): ""}))
        given = [token for token in argv if token not in (flag, "")]
        assert run(capsys, *given, "--config", "cfg.json") == (2, "", f"error: {flag} needs a file path, got an empty one\n")


def test_defaults_of_b_c_and_lam_are_the_given_zeros(capsys):
    # --b and --c default to "0" in cli.OPTIONS; --lam, whose length depends on --n, to one 0 per level
    assert cli.OPTIONS["b"][2] == cli.OPTIONS["c"][2] == "0"
    module = ("module", "--a", "1/2", "--range", "-3:3", "--format", "json", "classify")
    assert run(capsys, *module) == run(capsys, *module, "--b", "0")
    singular = ("verma", "--n", "1", "--depth", "2", "--format", "json", "singular")
    assert run(capsys, *singular) == run(capsys, *singular, "--lam", "0,0", "--c", "0")
    # family Aa reads no --b, so a --b given with its default value is still refused
    assert run(capsys, "module", "--family", "Aa", "--b", "0", "check")[0] == 2


def test_axioms_command(capsys):
    code, out, _ = run(capsys, "axioms", "--variant", "Vir", "--degree", "5", "--vir-degree", "4")
    assert code == 0
    assert "c0=1/2" in out
    assert "11 keys, 66 pairs, 286 triples" in out


def test_axioms_report_counts_checked_window(capsys):
    code, out, _ = run(capsys, "axioms", "--variant", "B", "--degree", "2", "--level", "1", "--vir-degree", "2", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    # 5 degrees x 2 levels
    assert report["checked"] == {"keys": 10, "pairs": 55, "triples": 220}


@pytest.mark.parametrize("flag", ["--degree", "--level"])
def test_axioms_empty_window_is_usage_error(capsys, flag):
    code, out, err = run(capsys, "axioms", "--variant", "B", flag, "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: empty axiom window")


def test_lemmas_default_passes_strict_flags_discrepancy(capsys):
    code, _, _ = run(capsys, "lemmas")
    assert code == 0
    strict_code, _, _ = run(capsys, "lemmas", "--strict")
    assert strict_code == 1  # the recorded leading-coefficient mismatch


def test_report_determinism(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(capsys, "lemmas", "--out", str(first))[0] == 0
    assert run(capsys, "lemmas", "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_classify_module_file(tmp_path, capsys):
    window = extend_trivially(build_window(IntermediateSpec("Aab", Fraction(1, 2), Fraction(2)), -4, 4), 1)
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(window.to_json()))
    code, out, _ = run(capsys, "classify", "--module-file", str(path))
    assert code == 0
    assert out.strip() == "intermediate-series"


def test_classify_reports_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"variant": "B"}')
    code, _, err = run(capsys, "classify", "--module-file", str(path))
    assert code == 2
    assert "offset" in err


def _window_file(tmp_path, lo, hi, dims):
    path = tmp_path / "window.json"
    doc = {"variant": "Vir", "offset": "0", "range": [lo, hi], "dims": dims, "generators": [], "actions": []}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "lo, hi, dims, message",
    [
        # a weight space one above the cap: classify spanned it in quadratic time and memory
        # (dimension 3,000 took 9 s and 579 MB), so a missing cap fails here in about a second
        (0, 1, {"0": 1001, "1": 0}, "weight space 0 of dimension 1001 exceeds the cap of 1000"),
        (-3, 2, {str(k): 1 if k else 1001 for k in range(-3, 3)}, "weight space 0 of dimension 1001 exceeds the cap of 1000"),
        (0, 500, {str(k): 0 for k in range(501)}, "range '0:500' of 501 indices exceeds the cap of 500 indices"),
    ],
    ids=["space", "inner-space", "range"],
)
def test_classify_refuses_an_oversize_module_file(tmp_path, capsys, lo, hi, dims, message):
    code, out, err = run(capsys, "classify", "--module-file", _window_file(tmp_path, lo, hi, dims))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("lo, hi, dims, code", [(0, 1, [3, 0], 0), (0, 1, [0, 4], 2), (0, 2, [0, 0, 0], 2)])
def test_classify_caps_are_exact(tmp_path, capsys, monkeypatch, lo, hi, dims, code):
    monkeypatch.setattr(cli, "VERMA_SPACE_CAP", 3)
    monkeypatch.setattr(cli, "RANGE_WIDTH_CAP", 2)
    path = _window_file(tmp_path, lo, hi, {str(k): d for k, d in zip(range(lo, hi + 1), dims)})
    assert run(capsys, "classify", "--module-file", path)[0] == code


def _break_actions(data):
    del data["actions"][:5]


def _break_shape(data):
    data["actions"][0]["matrix"] = {"rows": 2, "cols": 2, "entries": {"0,0": "1", "1,1": "1"}}


def _add_outside_action(data):
    # L_8 from index 4 would land on index 12, outside -4:4
    data["actions"].append({"alpha": 8, "level": 0, "source": 4, "matrix": {"rows": 1, "cols": 1, "entries": {}}})


def _break_dims(data):
    data["dims"]["0"] = -3


def _break_margins(data):
    data["col_margins"] = {k: [0, 0] for k in data["dims"]}


def _duplicate_action(data):
    # the last copy silently won before: a second L_{-8} at source 4 with another matrix
    data["actions"].append(dict(data["actions"][0], matrix={"rows": 1, "cols": 1, "entries": {"0,0": "9"}}))


def _duplicate_generator(data):
    data["generators"].append(dict(data["generators"][3]))


def _margins_outside(data):
    data["col_margins"] = {**{k: [0] for k in data["dims"]}, "99": [0]}


def _drop_dim(data):
    del data["dims"]["0"]


def _replace(doc):
    """A corruption that replaces the whole document by ``doc``."""

    def corrupt(data):
        data.clear()
        data.update(doc)

    return corrupt


# each of these passed as a window with no generators, no actions or no margins, and classified
_TWO_INDICES = {"variant": "Vir", "offset": "0", "range": [0, 1]}
_OBJECTS_FOR_LISTS = _replace({**_TWO_INDICES, "dims": {"0": 1, "1": 0}, "generators": {}, "actions": {}})
_ACTIONS_OBJECT = _replace(
    {**_TWO_INDICES, "dims": {"0": 1, "1": 1}, "generators": [{"alpha": 5, "level": 0}], "actions": {}}
)
_MARGINS_OBJECT = _replace(
    {**_TWO_INDICES, "dims": {"0": 0, "1": 1}, "generators": [], "actions": [], "col_margins": {"0": {}, "1": [3]}}
)


def _set(*path):
    """A corruption that stores the last item of ``path`` under the keys before it."""
    *keys, last, value = path

    def corrupt(data):
        for key in keys:
            data = data[key]
        data[last] = value

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_break_actions, "no action stored"),
        (_break_shape, "is 2x2, expected 1x1"),
        (_add_outside_action, "action stored for BasisKey(alpha=8, level=0) at index 4, not a generator acting inside the window"),
        (_break_dims, "negative dimension -3"),
        (_break_margins, "column margins"),
        (_set("range", [-3.7, 3.2]), "'range' entry must be an integer, got -3.7"),
        (_set("dims", "0", 1.9), "'dims' value must be an integer, got 1.9"),
        (_set("dims", []), "no attribute 'items'"),
        (_set("generators", 0, "alpha", True), "'alpha' must be an integer, got True"),
        (_set("generators", 0, "alpha", "-6"), "'alpha' must be an integer, got '-6'"),
        (_set("nonsense", 5), "unknown keys ['nonsense']"),
        (_set("actions", 0, "matrix", "rows", 1.0), "'rows' must be an integer, got 1.0"),
        (_set("actions", 0, "matrix", "entries", "0, 0", "5"), "entry '0, 0' index ' 0' is not an integer"),
        (_set("generators", 0, "junk", 1), "unknown keys ['junk']"),
        (_set("actions", 0, "junk", 1), "unknown keys ['junk']"),
        (_set("actions", 0, "matrix", "junk", 1), "unknown keys ['junk']"),
        (_duplicate_action, "action of BasisKey(alpha=-8, level=0) at index 4 is stored twice"),
        (_duplicate_generator, "generator BasisKey(alpha=-7, level=0) is listed twice"),
        (_set("dims", "99", 5), "'dims' key 99 is outside the range [-4, 4]"),
        (_margins_outside, "'col_margins' key 99 is outside the range [-4, 4]"),
        (_drop_dim, "range index 0 has no 'dims' entry"),
        # refused before a weight space of the two-billion-index range is made
        (_set("range", [-1000000000, 1000000000]), "range index -1000000000 has no 'dims' entry"),
        (_OBJECTS_FOR_LISTS, "'generators' must be a list, got {}"),
        (_ACTIONS_OBJECT, "'actions' must be a list, got {}"),
        (_MARGINS_OBJECT, "'col_margins' value must be a list, got {}"),
    ],
    ids=[
        "deleted-actions", "wrong-shape", "outside-action", "negative-dim", "margins-length", "float-range", "float-dim",
        "dims-not-object", "bool-alpha", "string-alpha", "unknown-key", "float-rows", "spaced-entry-key",
        "generator-unknown-key", "action-unknown-key", "matrix-unknown-key", "duplicate-action", "duplicate-generator",
        "dims-key-outside", "margins-key-outside", "missing-dim", "huge-range", "objects-for-lists", "actions-object",
        "margins-object",
    ],
)
def test_classify_rejects_inconsistent_module(tmp_path, capsys, corrupt, message):
    data = extend_trivially(build_window(IntermediateSpec("Aab", Fraction(1, 2), Fraction(2)), -4, 4), 1).to_json()
    corrupt(data)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "classify", "--module-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("axioms", "--variant", "Q:0:1_0", "--degree", "1", "--level", "0"), "malformed quotient variant 'Q:0:1_0'"),
        (("module", "--range", " -4:0_4", "--a", "1/2", "--b", "2", "check"), "malformed range ' -4:0_4'"),
        (("module", "--range", "-4:+4", "--a", "1/2", "--b", "2", "check"), "malformed range '-4:+4'"),
    ],
    ids=["variant-underscore", "range-space-underscore", "range-plus"],
)
def test_integers_in_variant_and_range_are_canonical(capsys, argv, message):
    # int() read these as Q:0:10 and -4:4
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "document, message",
    [
        ({"lambda": ["1/2", "2/3"], "c": "0", "junk": 5, "n": 9}, "unknown keys ['junk', 'n']"),
        ({"lambda": "12", "c": "0"}, "'lambda' must be a list"),
        ({"lambda": {"1": 0, "2": 0}}, "'lambda' must be a list"),
    ],
    ids=["unknown-keys", "string-lambda", "object-lambda"],
)
def test_lambda_file_is_read_strictly(tmp_path, capsys, document, message):
    path = tmp_path / "lambda.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "verma", "--n", "1", "--depth", "2", "singular", "--lambda-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("module", "--family", "Ba", "--a", "1/2", "--b", "7", "check"),
        ("module", "--family", "Aa", "--a", "1/2", "--b", "0", "check"),
        ("module", "--family", "Ba", "--a", "0", "--to-b", "5", "intertwiner"),
        ("module", "--family", "Aa", "--a", "0", "--to-b", "5", "intertwiner"),
    ],
    ids=["Ba-b", "Aa-b", "Ba-to-b", "Aa-to-b"],
)
def test_b_parameters_belong_to_family_aab(capsys, argv):
    # --b was ignored and --to-b built an Aab target whatever the family
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "family Aab" in err


@pytest.mark.parametrize(
    "operand",
    [
        '{"variant": "B", "terms": [{"alpha": 1, "level": 0, "coeff": "1", "junk": 5}]}',
        '{"variant": "B", "terms": [], "junk": 5}',
        '{"alpha": 1, "junk": 5}',
    ],
    ids=["term", "element", "shorthand"],
)
def test_bracket_operands_are_read_strictly(capsys, operand):
    code, out, err = run(capsys, "bracket", "--variant", "B", "--x", operand, "--y", '{"alpha":1}')
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "unknown keys ['junk']" in err


def test_bracket_operand_terms_must_be_a_list(capsys):
    # an object of terms passed as the zero element
    code, out, err = run(capsys, "bracket", "--variant", "B", "--x", '{"variant":"B","terms":{}}', "--y", '{"alpha":1}')
    assert (code, out, err) == (2, "", "error: malformed element JSON: 'terms' must be a list, got {}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("module", "--a", "1/2", "--to-b", "3", "--range", "-4:4", "check"), "--to-b is read only by the intertwiner"),
        (("module", "--a", "1/2", "--to-b", "3", "--range", "-4:4", "spanning"), "--to-b is read only by the intertwiner"),
        (("verma", "--n", "1", "--depth", "2", "dims", "--lam", "5,5"), "read only by the singular action"),
        (("verma", "--n", "1", "--depth", "2", "dims", "--c", "0"), "read only by the singular action"),
        (("verma", "--n", "1", "--depth", "2", "dims", "--lambda-file", "lambda.json"), "read only by the singular action"),
        (
            ("verma", "--n", "1", "--depth", "2", "singular", "--lambda-file", "lambda.json", "--lam", "5,5", "--c", "7"),
            "--lam and --c would go unread",
        ),
        (("verma", "--n", "1", "--depth", "2", "singular", "--lambda-file", "lambda.json", "--c", "0"), "--lam and --c would go unread"),
    ],
    ids=["to-b-check", "to-b-spanning", "dims-lam", "dims-c", "dims-lambda-file", "file-and-lam-c", "file-and-c"],
)
def test_flags_that_nothing_reads_are_usage_errors(tmp_path, capsys, monkeypatch, argv, message):
    # each of these ran and exited 0 with the flag ignored
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lambda.json").write_text('{"lambda": ["1/2", "2/3"]}')
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


# every option that only some module or verma actions read, with a value and the actions that do not read it
_UNREAD = [
    ("pair_degree", "9", ("irreducible", "intertwiner", "extension", "spanning", "classify")),
    ("level_cap", "7", ("irreducible", "intertwiner", "spanning")),
    ("to_b", "3", ("check", "irreducible", "extension", "spanning", "classify")),
    ("lam", "5,5", ("dims",)),
    ("c", "0", ("dims",)),
    ("lambda_file", "lambda.json", ("dims",)),
]
_BASE = {"module": ("--a", "1/2", "--b", "2", "--range", "-4:4"), "verma": ("--n", "1", "--depth", "2")}


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize(
    "option, value, action",
    [(option, value, action) for option, value, actions in _UNREAD for action in actions],
    ids=[f"{option}-{action}" for option, _, actions in _UNREAD for action in actions],
)
def test_option_outside_its_readers_is_a_usage_error(tmp_path, capsys, monkeypatch, form, option, value, action):
    # a typed value and a config key are refused alike, before any window or basis is built
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lambda.json").write_text('{"lambda": ["1/2", "2/3"]}')
    for owner, name in ((cli.modules, "build_window"), (verma, "quasifinite_report")):
        monkeypatch.setattr(owner, name, _no_sweep)
    command = "verma" if action in ("dims", "singular") else "module"
    flag = "--" + option.replace("_", "-")
    if form == "flag":
        extra = (flag, value)
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({option: value}))
        extra = ("--config", "cfg.json")
    code, out, err = run(capsys, command, *_BASE[command], *extra, action)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} is read only by the ") and err.endswith(f", not {action}\n")
    assert err.count("\n") == 1


def test_irreducible_refuses_level_cap_and_pair_degree(capsys):
    # printed bruteforce=true criterion=true and exited 0 with both flags ignored
    argv = ("module", "--a", "1/2", "--b", "2", "--range", "-4:4", "--level-cap", "7", "--pair-degree", "9", "irreducible")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --pair-degree is read only by the check action, not irreducible\n"
    code, out, err = run(capsys, *argv[:-3], "irreducible")
    assert err == "error: --level-cap is read only by the check/extension/classify action, not irreducible\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_check_defaults_are_pair_degree_4_and_level_cap_2(capsys, monkeypatch, fmt):
    # the two options have no argparse default; check must read the documented ones from cli.OPTIONS
    calls = []

    def spy(name):
        original = getattr(cli.modules, name)

        def recorded(window, bound, **kwargs):
            calls.append((name, bound))
            return original(window, bound, **kwargs)

        return recorded

    for name in ("check_module_axioms", "extend_trivially"):
        monkeypatch.setattr(cli.modules, name, spy(name))
    argv = ("module", "--a", "1/2", "--b", "2", "--range", "-6:6", "--format", fmt)
    default = run(capsys, *argv, "check")
    assert default[0] == 0
    assert run(capsys, *argv, "--pair-degree", "4", "--level-cap", "2", "check") == default
    assert calls == 2 * [("check_module_axioms", 4), ("extend_trivially", 2), ("check_module_axioms", 4)]


def _no_sweep(*args, **kwargs):
    raise AssertionError("an oversized request reached the library")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--variant", "B", "--degree", "100000000", "--level", "0"), "axiom window of 200000001 keys exceeds the cap of 500 keys"),
        (("--variant", "W1inf", "--degree", "0", "--level", "100000000"), "axiom window of 100000001 keys exceeds the cap of 500"),
        (("--variant", "Vir", "--degree", "3", "--vir-degree", "1001"), "--vir-degree 1001 exceeds the cap of 1000"),
    ],
    ids=["degree", "level", "vir-degree"],
)
def test_oversized_axiom_requests_are_refused_up_front(capsys, monkeypatch, argv, message):
    # under a memory limit the degree-10^8 window ended in a MemoryError traceback with exit 1
    for name in ("window_keys", "verify_algebra_axioms", "vir_consistency"):
        monkeypatch.setattr(algebra, name, _no_sweep)
    code, out, err = run(capsys, "axioms", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_axiom_key_cap_counts_the_window_exactly(capsys, monkeypatch):
    # B at degree 2, level 1 has 5 x 2 keys: a cap of 10 admits it, and one more level is refused
    monkeypatch.setattr(cli, "AXIOM_KEY_CAP", 10)
    code, out, _ = run(capsys, "axioms", "--variant", "B", "--degree", "2", "--level", "1", "--vir-degree", "2", "--format", "json")
    assert code == 0 and json.loads(out)["checked"]["keys"] == 10
    code, out, err = run(capsys, "axioms", "--variant", "B", "--degree", "2", "--level", "2")
    assert code == 2
    assert err == "error: axiom window of 15 keys exceeds the cap of 10 keys\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verma", "--n", "1000000000", "--depth", "1000000000", "singular"), "depth-1 space of Q:0:1000000000 has 1000000001 monomials, above the cap of 1000"),
        (("verma", "--n", "1000000000", "--depth", "0", "dims"), "depth-1 space of Q:0:1000000000 has 1000000001 monomials, above the cap of 1000"),
        (("verma", "--n", "1", "--depth", "1000000000", "dims"), "depth-15 space of Q:0:1 has 3956 monomials, above the cap of 1000"),
        (("verma", "--n", "0", "--depth", "1000000000", "singular"), "depth-31 space of Q:0:0 has 6842 monomials, above the cap of 1000"),
        (("verma", "--n", "0", "--depth", "26", "singular"), "depth-26 space of Q:0:0 has 2436 monomials, above the cap of 1000"),
        (("module", "--range", "-1000000000:1000000000", "check"), "range '-1000000000:1000000000' of 2000000001 indices exceeds the cap of 500 indices"),
        (("module", "--a", "0,1", "--range", "0:500", "extension"), "range '0:500' of 501 indices exceeds the cap of 500 indices"),
        (("verma", "--n", "999", "--depth", "1", "singular"), "singular vectors of Q:0:999 at depth 1 need up to 1000*1*1000 = 1000000 checking actions, above the cap of 100000"),
        (("module", "--a", "1/2", "--range", "-4:4", "--level-cap", "100000", "check"), "module check on -4:4 at level cap 100000 stores 16200162 matrices and unknowns, above the cap of 50000"),
        (("module", "--a", "1/2", "--b", "2", "--range", "-4:4", "--level-cap", "1000000000", "extension"), "module extension on -4:4 at level cap 1000000000 stores 45000000081 matrices and unknowns, above the cap of 50000"),
        (("module", "--a", "1/2", "--range", "-250:249", "irreducible"), "module irreducible on -250:249 at level cap 2 stores 250000 matrices and unknowns, above the cap of 50000"),
    ],
    ids=[
        "verma-levels", "verma-levels-depth-0", "verma-depth", "verma-depth-n0", "verma-deep-n0", "range", "range-grid",
        "verma-work", "level-cap", "extension-level-cap", "window",
    ],
)
def test_oversized_verma_and_module_requests_are_refused_up_front(capsys, monkeypatch, argv, message):
    # nothing that builds a basis or a window may run, and no partition count up to the requested depth
    for owner, name in ((verma, "verma_basis"), (verma, "quasifinite_report"), (verma, "singular_vectors"), (cli.modules, "build_window")):
        monkeypatch.setattr(owner, name, _no_sweep)
    count = verma.partition_dimensions

    def bounded_count(n, depth):
        if n > 10_000 or depth > 100:
            _no_sweep()
        return count(n, depth)

    monkeypatch.setattr(verma, "partition_dimensions", bounded_count)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verma_and_range_caps_count_exactly(capsys, monkeypatch):
    # n = 1, depth 10 has 481 monomials and -8:8 has 17 indices: caps of that size admit them, one more is refused
    monkeypatch.setattr(cli, "VERMA_SPACE_CAP", 481)
    monkeypatch.setattr(cli, "RANGE_WIDTH_CAP", 17)
    code, out, _ = run(capsys, "verma", "--n", "1", "--depth", "10", "dims", "--format", "json")
    assert code == 0 and json.loads(out)["report"]["dimensions"][-1] == 481
    code, out, err = run(capsys, "verma", "--n", "1", "--depth", "11", "singular")
    assert code == 2
    assert err == "error: depth-11 space of Q:0:1 has 752 monomials, above the cap of 481\n"
    code, out, _ = run(capsys, "module", "--a", "1/2", "--range", "-8:8", "spanning")
    assert code == 0
    code, out, err = run(capsys, "module", "--a", "1/2", "--range", "-9:8", "spanning")
    assert code == 2
    assert err == "error: range '-9:8' of 18 indices exceeds the cap of 17 indices\n"
    # n = 1 has 10 monomials at depth 3 and 20 at depth 4: 2*3*10 = 60 checking actions are admitted, 2*4*20 are not
    monkeypatch.setattr(cli, "VERMA_WORK_CAP", 60)
    code, out, _ = run(capsys, "verma", "--n", "1", "--depth", "3", "singular")
    assert code == 0
    code, out, err = run(capsys, "verma", "--n", "1", "--depth", "4", "singular")
    assert code == 2
    assert err == "error: singular vectors of Q:0:1 at depth 4 need up to 2*4*20 = 160 checking actions, above the cap of 60\n"


@pytest.mark.parametrize(
    "argv, count",
    [
        (("--range", "-8:8", "check"), 289 + 5 * 289),
        (("--range", "-8:8", "--level-cap", "1", "classify"), 289 + 3 * 289),
        (("--range", "-4:4", "--to-b", "0", "intertwiner"), 2 * 81),
        (("--range", "-4:4", "--level-cap", "1", "extension"), 81 + 7 + 8 + 9 + 8 + 7 + 6),
        (("--range", "-8:8", "spanning"), 289),
        (("--range", "-4:4", "irreducible"), 81),
    ],
    ids=["check", "classify", "intertwiner", "extension", "spanning", "irreducible"],
)
def test_module_matrix_cap_counts_exactly(capsys, monkeypatch, argv, count):
    # a window on N indices stores N^2 matrices, the trivial extension one copy per level 0..2*level_cap,
    # and extension one unknown per level, band degree a and interior source
    monkeypatch.setattr(cli, "MODULE_MATRIX_CAP", count)
    code, _, err = run(capsys, "module", "--a", "1/2", "--b", "2", *argv)
    assert code == 0, err
    monkeypatch.setattr(cli, "MODULE_MATRIX_CAP", count - 1)
    code, out, err = run(capsys, "module", "--a", "1/2", "--b", "2", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: module ") and err.endswith(f" stores {count} matrices and unknowns, above the cap of {count - 1}\n")


def _module_cap_count(action, lo, hi, level_cap):
    """The count ``_check_module_size`` holds against the cap, read from its refusal at cap 0."""
    with pytest.MonkeyPatch.context() as patch, pytest.raises(cli.UsageError) as refusal:
        patch.setattr(cli, "MODULE_MATRIX_CAP", 0)
        cli._check_module_size(action, lo, hi, level_cap)
    return int(re.search(r" stores (\d+) matrices and unknowns", str(refusal.value)).group(1))


@pytest.mark.parametrize(
    "argv",
    [
        ("--a", "1/2", "--b", "2", "--range", "-4:4", "--level-cap", "0", "check"),
        ("--a", "0", "--b", "1", "--range", "-3:5", "--level-cap", "2", "--pair-degree", "8", "check"),
        ("--a", "1/2", "--b", "2", "--range", "-4:4", "--level-cap", "1", "classify"),
        ("--a", "0", "--b", "0", "--range", "-2:3", "--level-cap", "3", "classify"),
        ("--a", "1/2", "--b", "1", "--to-b", "0", "--range", "-4:4", "intertwiner"),
        ("--a", "1/2", "--b", "2", "--range", "-4:4", "--level-cap", "1", "extension"),
        ("--a", "2", "--b", "0", "--range", "-3:3", "--level-cap", "3", "extension"),
        ("--a", "1/2", "--b", "2", "--range", "-8:8", "spanning"),
        ("--a", "0", "--b", "1", "--range", "-4:4", "irreducible"),
    ],
    ids=["check", "check-level-2", "classify", "classify-level-3", "intertwiner", "extension", "extension-level-3",
         "spanning", "irreducible"],
)
def test_module_cap_bounds_what_the_job_stores(capsys, monkeypatch, argv):
    # every window the job makes, read after it ends: the matrices it stores, plus extension's unknowns
    made = []
    init = windows.WindowedModule.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(windows.WindowedModule, "__init__", record)
        code, out, err = run(capsys, "module", *argv, "--format", "json")
    assert code in (0, 1), err
    report = json.loads(out)
    unknowns = report["grid"][0]["unknowns"] if argv[-1] == "extension" else 0
    stored = sum(len(window._actions) for window in made)
    lo, hi = map(int, argv[argv.index("--range") + 1].split(":"))
    level_cap = int(argv[argv.index("--level-cap") + 1]) if "--level-cap" in argv else 2
    assert made and stored > 0
    assert stored + unknowns <= _module_cap_count(argv[-1], lo, hi, level_cap)


def test_bracket_operand_variant_must_match_the_flag(capsys):
    # both operands in W1inf ran under --variant B and reported "variant": "B" beside a W1inf result
    operand = '{"variant":"W1inf","terms":[{"alpha":1,"level":0,"coeff":"1"}]}'
    code, out, err = run(capsys, "bracket", "--variant", "B", "--x", operand, "--y", operand)
    assert code == 2
    assert out == ""
    assert err == "error: operand variant W1inf differs from --variant B\n"
    code, out, _ = run(capsys, "bracket", "--variant", "W1inf", "--x", operand, "--y", '{"alpha":-1}', "--format", "json")
    assert code == 0 and json.loads(out)["variant"] == "W1inf"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"degree": 3, "vir_degree": 2}')
    code, out, _ = run(
        capsys, "axioms", "--config", str(cfg), "--variant", "Vir", "--vir-degree", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["degree"] == 3  # from the config file
    assert payload["vir_consistency"]["pairs"] == 81  # flag value 4 wins


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("axioms", "--variant", "Q:0:1"), {"degree": 2.9}, "'degree'"),
        (("axioms", "--variant", "Q:0:1"), {"level": True}, "'level'"),
        (("axioms", "--variant", "Q:0:1"), {"nonsense": 5}, "'nonsense'"),
        (("module", "check"), {"a": 0.5}, "'a'"),
        (("verma", "dims"), {"n": "x"}, "--n"),
        (("axioms", "--variant", "Q:0:1"), {"deg": 2}, "'deg'"),
        (("axioms", "--variant", "Q:0:1"), [{"degree": 2}], "JSON object"),
    ],
    ids=["float", "bool", "unknown-key", "float-rational", "int-flag-text", "abbreviated-key", "list"],
)
def test_config_values_are_read_like_flags(tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    try:
        code = main([*argv, "--config", str(cfg)])
    except SystemExit as exc:  # argparse rejects a config value as it rejects the same flag
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


def test_config_value_may_start_with_a_dash(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"range": "-4:4", "a": "1/2", "b": "2"}')
    typed = run(capsys, "module", "--range", "-4:4", "--a", "1/2", "--b", "2", "check", "--format", "json")
    assert typed[0] == 0
    assert run(capsys, "module", "--config", str(cfg), "check", "--format", "json") == typed


def _run_exit(capsys, *argv):
    """``run``, with an argparse refusal read as its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize(
    "argv, option, value",
    [
        (("axioms", "--variant", "Q:0:1", "--level", "0"), "degree", "1_0"),
        (("axioms", "--variant", "Q:0:1", "--degree", "1"), "level", " 0"),
        (("axioms", "--variant", "Q:0:1", "--level", "0"), "degree", "+2"),
        (("axioms", "--variant", "Q:0:1", "--level", "0"), "vir_degree", "02"),
        (("verma", "--depth", "3", "dims"), "n", " 1"),
        (("verma", "--n", "1", "dims"), "depth", "0_3"),
        (("module", "--a", "1/2", "--b", "2", "--range", "-4:4", "check"), "level_cap", "02"),
        (("module", "--a", "1/2", "--b", "2", "--range", "-4:4", "check"), "pair_degree", "+4"),
    ],
    ids=["degree-underscore", "level-space", "degree-plus", "vir-degree-zero", "n-space", "depth-underscore",
         "level-cap-zero", "pair-degree-plus"],
)
def test_int_options_read_only_canonical_decimals(tmp_path, capsys, monkeypatch, form, argv, option, value):
    # int() read each of these: --degree 1_0 ran at degree 10, --level " 0" at level 0
    monkeypatch.chdir(tmp_path)
    flag = "--" + option.replace("_", "-")
    (tmp_path / "cfg.json").write_text(json.dumps({option: value}))
    extra = (flag, value) if form == "flag" else ("--config", "cfg.json")
    code, out, err = _run_exit(capsys, *argv, *extra)
    assert (code, out, err) == (2, "", f"error: {flag} {value!r} is not an integer in canonical decimal\n")


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (("axioms", "--variant", "Q:0:1", "--deg", "1", "--level", "0"), "unrecognized arguments: --deg 1"),
        (("axioms", "--variant", "Q:0:1", "--level", "0", "--vir", "2"), "unrecognized arguments: --vir 2"),
        (("module", "--ran", "1:3", "--a", "1/2", "check"), "unrecognized arguments: --ran=1:3"),
        (("module", "--ran", "-3:3", "--a", "1/2", "check"), "unrecognized arguments: --ran -3:3"),
        (("verma", "--dep", "2", "dims"), "unrecognized arguments: --dep=2"),
        (("module", "--a", "1/2", "--ran", "check"), "unrecognized arguments: --ran"),
    ],
    ids=["deg", "vir", "ran", "ran-negative", "dep", "ran-before-action"],
)
def test_flags_are_not_abbreviated(capsys, argv, refusal):
    # argparse read each prefix as its flag; --ran -3:3 failed with "expected one argument",
    # since only the full --range was joined with a value that starts with "-".  An unknown
    # flag's value is not read as the action ("invalid choice: '1:3'"), and an action after
    # an unknown flag stays the action
    code, out, err = _run_exit(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("blocklie") and refusal in err.splitlines()[-1]


@pytest.mark.parametrize("argv", [("lemmas", "--out", "--strict"), ("bracket", "--x", "--y", '{"alpha":1}')])
def test_a_flag_is_not_read_as_the_value_of_the_flag_before_it(tmp_path, capsys, monkeypatch, argv):
    # --x took "--y" as its value; a value flag is joined with the next token unless that starts with "--"
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_exit(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"argument {argv[1]}: expected one argument") and not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, key",
    [
        (("lemmas",), "config"),
        (("axioms", "--variant", "Q:0:1", "--degree", "1", "--level", "0"), "command"),
        (("module", "--a", "1/2", "--range", "-3:3", "irreducible"), "action"),
    ],
)
def test_a_config_file_sets_only_options(tmp_path, capsys, monkeypatch, argv, key):
    # {"config": "missing.json"} was ignored, and lemmas exited 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: "missing.json"}))
    code, out, err = _run_exit(capsys, *argv, "--config", "cfg.json")
    assert (code, out) == (2, "")
    assert err == f"error: config key {key!r} is not an option of {argv[0]} that a config file can set\n"


def test_a_config_file_cannot_set_a_switch(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for value in (1, "true", True):
        (tmp_path / "cfg.json").write_text(json.dumps({"strict": value}))
        code, out, err = _run_exit(capsys, "lemmas", "--config", "cfg.json")
        assert (code, out) == (2, "") and err.startswith("error: ") and "strict" in err and err.count("\n") == 1


_OPERANDS = {"x": '{"alpha":2,"level":0}', "y": '{"alpha":-2,"level":0}'}


def test_required_options_may_come_from_the_config_file(tmp_path, capsys, monkeypatch):
    # argparse asked for --x, --y and --module-file before the file was read, and exited 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "operands.json").write_text(json.dumps(_OPERANDS))
    typed = run(capsys, "bracket", "--x", _OPERANDS["x"], "--y", _OPERANDS["y"])
    assert typed == (0, "-4*L_{0,0} + C\n", "")
    assert run(capsys, "bracket", "--config", "operands.json") == typed
    window = build_window(IntermediateSpec("Aab", Fraction(1, 2), Fraction(2)), -4, 4)
    (tmp_path / "module.json").write_text(json.dumps(window.to_json()))
    (tmp_path / "classify.json").write_text('{"module_file": "module.json"}')
    typed = run(capsys, "classify", "--module-file", "module.json")
    assert typed == (0, "intermediate-series\n", "")
    assert run(capsys, "classify", "--config", "classify.json") == typed
    # and one given nowhere is refused with one error line
    assert run(capsys, "bracket", "--y", _OPERANDS["y"]) == (2, "", "error: bracket needs --x, typed or from --config\n")
    assert run(capsys, "classify") == (2, "", "error: classify needs --module-file, typed or from --config\n")


# a value for each option of cli.OPTIONS, and a quick job of each subcommand that reads it
_ROW_VALUES = {
    "out": "report.json", "format": "json", "variant": "Vir", **_OPERANDS, "degree": "2", "level": "1",
    "vir_degree": "3", "family": "Aa", "a": "1/3", "b": "2", "to_b": "0", "range": "-4:4", "pair_degree": "2",
    "level_cap": "1", "n": "0", "depth": "4", "lambda_file": "lambda.json", "lam": "1/2,2/3", "c": "1/3",
    "module_file": "module.json",
}
_ROW_JOBS = {
    "bracket": {**_OPERANDS},
    "axioms": {"variant": "Q:0:1", "degree": "1", "level": "0", "vir_degree": "2"},
    "module": {"a": "1/2", "range": "-3:3"},
    "verma": {"n": "1", "depth": "2"},
    "classify": {"module_file": "module.json"},
}
_ROW_ACTIONS = {"module": "classify", "verma": "dims"}


@pytest.mark.parametrize("name", [name for name in cli.OPTIONS if name not in ("config", "strict")])
def test_each_option_reads_the_same_typed_and_from_a_config_file(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lambda.json").write_text('{"lambda": ["1/2", "0"], "c": "2"}')
    window = build_window(IntermediateSpec("Aab", Fraction(1, 2), Fraction(2)), -4, 4)
    (tmp_path / "module.json").write_text(json.dumps(window.to_json()))
    commands, reader, _, actions, _ = cli.OPTIONS[name]
    command = commands[0]
    action = actions[0] if actions else _ROW_ACTIONS.get(command)
    argv = [command]
    for option, value in _ROW_JOBS[command].items():
        if option != name:
            argv += ["--" + option.replace("_", "-"), value]
    value = _ROW_VALUES[name]

    def report(*extra):
        result = run(capsys, *argv, *extra, *([action] if action else []))
        written = tmp_path / "report.json"
        return result, written.read_bytes() if written.exists() else None

    typed = report("--" + name.replace("_", "-"), value)
    assert typed[0][0] == 0, typed
    configs = [{name: value}] + ([{name: int(value)}] if reader is cli._int else [])
    for config in configs:
        (tmp_path / "report.json").unlink(missing_ok=True)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert report("--config", "cfg.json") == typed, config


def test_out_of_variant_key_diagnostic(capsys):
    code, _, err = run(
        capsys, "bracket", "--variant", "Q:1:2",
        "--x", '{"alpha":1,"level":0}', "--y", '{"alpha":1,"level":1}',
    )
    assert code == 2
    assert "not valid" in err


def test_spanning_and_extension_commands(capsys):
    code, out, _ = run(
        capsys, "module", "--family", "Aab", "--a", "1/2", "--b", "2", "--range", "-8:8", "spanning"
    )
    assert code == 0 and "spans" in out
    code, out, _ = run(
        capsys, "module", "--family", "Aab", "--a", "1/2", "--b", "2", "--range", "-9:9",
        "--level-cap", "1", "extension",
    )
    assert code == 0
    assert "dimension: 0" in out


def test_extension_without_equations_is_a_usage_error(capsys):
    # a one-index window gives no equation: reporting it would pass vacuously
    code, out, err = run(
        capsys, "module", "--family", "Aab", "--a", "1/2", "--b", "2", "--range", "0:0",
        "--level-cap", "1", "extension",
    )
    assert code == 2
    assert out == ""
    assert "range 0:0" in err and "level cap 1" in err


def test_intertwiner_command(capsys):
    code, out, _ = run(
        capsys, "module", "--family", "Aab", "--a", "1/2", "--b", "1", "--to-b", "0",
        "--range", "-6:6", "intertwiner",
    )
    assert code == 0 and "found" in out


def test_unwritable_report_path(capsys):
    code, _, err = run(capsys, "verma", "--n", "1", "--depth", "2", "dims", "--out", "/no-such-dir/report.json")
    assert code == 1
    assert "cannot write report" in err


def test_negative_pair_degree_is_a_usage_error(capsys):
    # no pair has a negative degree bound, so the check would pass vacuously
    code, out, err = run(
        capsys, "module", "--range", "-8:8", "--pair-degree", "-1", "--level-cap", "0", "check"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--pair-degree >= 1" in err


@pytest.mark.parametrize("action, level_cap", [("classify", "-5"), ("check", "-1"), ("extension", "-1")])
def test_negative_level_cap_is_refused_before_any_window_is_built(capsys, monkeypatch, action, level_cap):
    # classify at -5 reported "unknown" with exit 0, and check at -1 blamed the pair degree
    monkeypatch.setattr(cli.modules, "build_window", _no_sweep)
    code, out, err = run(capsys, "module", "--a", "1/2", "--b", "2", "--range", "-3:3", "--level-cap", level_cap, action)
    assert (code, out, err) == (2, "", f"error: need --level-cap >= 0, got {level_cap}\n")


def test_zero_pair_degree_is_a_usage_error(capsys):
    # degree 0 compares only (L_0, L_0), which commutes on every window
    for level_cap in ("0", "1"):
        code, out, err = run(
            capsys, "module", "--a", "1/2", "--b", "1", "--range", "-8:8",
            "--pair-degree", "0", "--level-cap", level_cap, "check",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--pair-degree >= 1" in err


def test_one_index_check_is_a_usage_error(capsys):
    # no generator but L_0 acts on a one-index window, so no pair can be compared
    code, out, err = run(capsys, "module", "--a", "1/2", "--b", "1", "--range", "3:3", "check")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "[3, 3]" in err


@pytest.mark.parametrize("a", ["1/2", "0"])
def test_one_index_irreducible_is_a_usage_error(capsys, a):
    # a one-index window holds no bracket, so either verdict would be vacuous; at a = 0, b = 1 a
    # deciding window also holds index 0, which nothing else reaches
    code, out, err = run(capsys, "module", "--a", a, "--b", "1", "--range", "3:3", "irreducible")
    assert code == 2
    assert out == ""
    wide = {"1/2": "3:5", "0": "0:3"}[a]
    assert err.startswith("error: ") and "range 3:3" in err and err.endswith(f" decides is {wide}\n")


@pytest.mark.parametrize(
    "argv, wide",
    [(("--a", "0", "--b", "2", "--range", "-2:-1"), "-2:0"), (("--a", "0", "--b", "0", "--range", "1:5"), "0:5")],
    ids=["two-indices", "misses-minus-a"],
)
def test_irreducible_refuses_a_window_that_cannot_decide(capsys, argv, wide):
    # each exited 1, as a failed check: bruteforce=false criterion=true, then bruteforce=true criterion=false
    code, out, err = run(capsys, "module", *argv, "irreducible")
    assert (code, out) == (2, "")
    assert err.startswith("error: range ") and err.endswith(f" decides is {wide}\n") and err.count("\n") == 1
