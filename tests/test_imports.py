"""Import footprint: which blocklie modules a command executes.

Each probe runs in a fresh interpreter, since this process has executed
every module already.  A submodule is registered in ``sys.modules`` when
the package is imported; it counts as executed once its type is plain
``types.ModuleType``, which a lazy module becomes on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blocklie

SRC = Path(__file__).resolve().parents[1] / "src"
LIBRARY = ("algebra", "identities", "linalg", "modules", "multipoly", "rationals", "reporting", "verma", "windows")

PROBE = """
import io, json, sys, types
from contextlib import redirect_stdout
with redirect_stdout(io.StringIO()):
{body}
print(json.dumps({{
    "executed": sorted(n for n, m in sys.modules.items() if n.split(".")[0] == "blocklie" and type(m) is types.ModuleType),
    "registered": sorted(n for n in sys.modules if n.split(".")[0] == "blocklie"),
    "generated_code": sorted(n for n in ("dataclasses", "inspect", "ast", "dis") if n in sys.modules),
}}))
"""


def probe(*lines: str) -> dict:
    code = PROBE.format(body="\n".join("    " + line for line in lines))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def executed_library(result: dict) -> set[str]:
    return {name.removeprefix("blocklie.") for name in result["executed"]} & set(LIBRARY)


def test_importing_the_cli_registers_every_library_module():
    # bench/tracer.py reads sys.modules["blocklie.<module>"] right after this import
    result = probe("import blocklie.cli")
    assert {f"blocklie.{name}" for name in LIBRARY} <= set(result["registered"])


def test_building_the_parser_executes_only_rationals_and_reporting():
    result = probe("import blocklie.cli", "blocklie.cli.build_parser()")
    assert result["executed"] == ["blocklie", "blocklie.cli", "blocklie.rationals", "blocklie.reporting"]
    assert result["generated_code"] == []


def test_axioms_executes_no_elimination_module_polynomial_or_window_code():
    result = probe(
        "from blocklie.cli import main",
        "assert main(['axioms', '--variant', 'Q:0:1', '--degree', '2', '--level', '0']) == 0",
    )
    assert executed_library(result) == {"algebra", "rationals", "reporting"}


def test_verma_dims_executes_no_elimination_or_window_code():
    result = probe(
        "from blocklie.cli import main",
        "assert main(['verma', '--n', '1', '--depth', '3', 'dims']) == 0",
    )
    assert executed_library(result) == {"algebra", "rationals", "reporting", "verma"}


def test_verma_singular_does_not_execute_modules():
    result = probe(
        "from blocklie.cli import main",
        "assert main(['verma', '--n', '1', '--depth', '3', 'singular', '--lam', '1/2,2/3', '--c', '0']) == 0",
    )
    assert "verma" in executed_library(result)
    assert not {"modules", "windows"} & executed_library(result)


def test_lemmas_executes_windows_but_not_modules():
    # identities reads the window type, the adjoint window and interior from windows
    result = probe("from blocklie.cli import main", "assert main(['lemmas']) == 0")
    assert {"identities", "windows"} <= executed_library(result)
    assert "modules" not in executed_library(result)


def test_module_check_executes_windows_and_modules():
    result = probe(
        "from blocklie.cli import main",
        "assert main(['module', '--a', '1/2', '--b', '2', '--range', '-4:4', 'check']) == 0",
    )
    assert {"modules", "windows"} <= executed_library(result)


@pytest.mark.parametrize(
    "argv",
    [
        ["axioms", "--variant", "Q:0:1", "--degree", "2", "--level", "0"],
        ["module", "--a", "1/2", "--b", "2", "--range", "-4:4", "check"],
        ["module", "--a", "1/2", "--b", "2", "--range", "-4:4", "extension"],
        ["verma", "--n", "1", "--depth", "3", "singular", "--lam", "1/2,2/3"],
        ["lemmas"],
    ],
    ids=["axioms", "check", "extension", "singular", "lemmas"],
)
def test_working_commands_import_no_code_generation(argv):
    # dataclasses pulls in inspect, ast and dis, and compiles each decorated class's methods at import
    result = probe("from blocklie.cli import main", f"assert main({argv!r}) == 0")
    assert result["generated_code"] == []


def test_public_names_resolve_lazily():
    assert len(set(blocklie.__all__)) == len(blocklie.__all__) == 51
    for name in blocklie.__all__:
        getattr(blocklie, name)
    namespace: dict = {}
    exec("from blocklie import *", namespace)
    assert set(blocklie.__all__) <= set(namespace)
    assert namespace["MultiPoly"] is blocklie.multipoly.MultiPoly
    assert set(blocklie.__all__) <= set(dir(blocklie))
    with pytest.raises(AttributeError, match="no_such_name"):
        blocklie.no_such_name


def test_star_import_in_a_fresh_interpreter():
    result = probe(
        "from blocklie import *",
        "from blocklie.algebra import bracket as algebra_bracket",
        "assert bracket is algebra_bracket and MultiPoly.__name__ == 'MultiPoly'",
    )
    assert {"algebra", "multipoly"} <= executed_library(result)
