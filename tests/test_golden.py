"""Golden outputs: frozen stdout digests and exit codes of the window-building paths.

The digests were recorded before the window loops were rewritten onto
``windows.interior``; any change in which indices a check visits, which
actions a window stores or which linear system is built shows up here as
a different byte stream.  The CLI cases cover every command that runs
such a loop; the library cases cover the constructions the CLI does not
reach (tensor, direct sum, adjoint and Verma windows, failing checks).
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from blocklie.algebra import BasisKey
from blocklie.cli import main
from blocklie.linalg import RationalMatrix
from blocklie.modules import (
    IntermediateSpec,
    build_window,
    check_module_axioms,
    direct_sum,
    extend_trivially,
    extension_space,
    tensor,
)
from blocklie.verma import WeightFunctional, verma_window
from blocklie.windows import adjoint_window
from test_modules import with_actions

CLI_GOLDEN = [
    ("module --family Aab --a 1/2 --b 2 --range -8:8 check", 0, "bc19098f1885485700eaaa565bcc6f6c16c3bb6fd69ed8e158a2b13defe9ce74"),
    ("module --family Aab --a 1/2 --b 2 --range -8:8 check --format json", 0, "31057b59d9fad926cc3ca770cd8e5eeb39b9d62b5a33f1e4992f3faf3fd0ab33"),
    ("module --family Ba --a 1/3 --range -6:6 --pair-degree 3 --level-cap 1 check --format json", 0, "31057b59d9fad926cc3ca770cd8e5eeb39b9d62b5a33f1e4992f3faf3fd0ab33"),
    # integer a and b = 0: the linear kernel is nonzero, so the quadratic stage runs
    ("module --family Aab --a 2 --b 0 --range -12:12 extension --format json", 0, "4dea3f642f6e2452dc6f8b9f311b79f28036ab47c57435de1fd1b94ff19789d7"),
    ("module --family Aab --a 1/2 --b 0,1/2,2 --range -10:10 extension --format json", 0, "c242cbd3fd6e8cce2be33aa8b1c38c875d49d2b5a19542858f94a395004c3237"),
    ("module --family Aab --a 1/2 --b 1 --to-b 0 --range -8:8 intertwiner --format json", 0, "1835713d83a5501b07fb552ba99f0d5e8041b965e85f9f7c9b51680db2682ba6"),
    ("module --family Aab --a 0 --b 1 --to-b 0 --range -8:8 intertwiner --format json", 0, "2668ffc85b42fce359beac21ad31b7db849533fc0648addd11adcbe867424324"),
    ("module --family Aab --a 1 --b 0 --range -8:8 classify --format json", 0, "549ce04fecfd524b3e0697dc4a5531aad1185af4a97b58998067edf5c65b4fd3"),
    ("module --family Aab --a 0,1/2 --b 0,1 --range -8:8 irreducible --format json", 0, "8865e729fb484f9e593e957b56e013d29cf41d0be70a4d7afeadce046f556bf0"),
    ("module --family Aab --a 1/2 --b 2 --range -8:8 spanning --format json", 0, "36a1d214b5ce3be4f43ae41ec6de338a016e86314aa020f2f20c73956418043c"),
    ("verma --n 1 --depth 4 singular --lam 1/2,0 --c 0 --format json", 0, "f5fc8e44de38e3405e558e03a9f26b2fc9916bdf96a174d76542f8764c74295d"),
    ("verma --n 1 --depth 3 singular --lam 1/2,2/3 --c 0", 0, "f1a53cd81e301073c48c734f8733f8ee8001d9db9a025ecc48273265dfee4ce3"),
    ("verma --n 2 --depth 5 dims --format json", 0, "ddc3944c68dc16ead13f65194a52f6f5ef688449f171e6694c188d0bc8a5d992"),
    ("lemmas --format json", 0, "ca9ef2d590e7edc53a1bf85c8e7f6ed8b1de22c524cb0274f125912734d609ab"),
    # exits 1 by design: the recorded shift-system-leading-coefficient discrepancy
    ("lemmas --strict", 1, "e9217537cdaa85a76692307f34f1889add52854c1af51c519046d65de30d44b4"),
]


@pytest.mark.parametrize("command, exit_code, digest", CLI_GOLDEN, ids=[c for c, _, _ in CLI_GOLDEN])
def test_cli_output_is_frozen(capsys, command, exit_code, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


def _broken():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -6, 6)
    return with_actions(window, {(BasisKey(1, 0), 0): RationalMatrix(1, 1, {(0, 0): F(5)})})


LIBRARY_GOLDEN = {
    "build_window": (
        lambda: build_window(IntermediateSpec("Ba", F(1, 3)), -5, 5).to_json(),
        "1c5de108c2bde6abfbc5e21802e3d0652fbe9ba33b841857567cb003b4658962",
    ),
    "extend_trivially": (
        lambda: extend_trivially(build_window(IntermediateSpec("Aa", F(2)), -4, 4), 1).to_json(),
        "e688dd9edc349f8c6ee83c00e40a094dfdc98b5b70357764dc12254bb8e89888",
    ),
    "tensor": (
        lambda: tensor(
            build_window(IntermediateSpec("Aab", F(0), F(0)), -2, 2),
            build_window(IntermediateSpec("Aab", F(1, 2), F(1)), -3, 3),
        ).to_json(),
        "232629517f78c9109e522454ac3421dabfd92c693b9486a46f442567ded178ce",
    ),
    "direct_sum": (
        lambda: direct_sum(
            build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -4, 4),
            build_window(IntermediateSpec("Aab", F(1, 2), F(0)), -4, 4),
        ).to_json(),
        "4b1ca2317663b69d1ff36e51326ff506aa3c386ed8de1272b2f82655db1bc7f7",
    ),
    "adjoint_window": (
        lambda: adjoint_window(0, 1, -3, 3).to_json(),
        "390d8463dae3f0075bf2a863040817b3bdecaf7a6ca0f8325703594bb46ee808",
    ),
    "verma_window": (
        lambda: verma_window(WeightFunctional((F(1, 2), F(0)), F(1, 3)), 1, 3).to_json(),
        "89a6554017818dcfb9c058993865af6057c8935c110cf1a07c1ff2577a3a97f0",
    ),
    "violations": (
        lambda: check_module_axioms(_broken(), 2) + check_module_axioms(extend_trivially(_broken(), 1), 2, [BasisKey(1, 1)]),
        "5a982dc082c57b1c68a8700192f05ea3ef39c2fc2e0e7ed7f2c6180c7fc1ba0a",
    ),
    "tensor_violations": (
        lambda: check_module_axioms(tensor(_broken(), build_window(IntermediateSpec("Aab", F(0), F(1)), -2, 2)), 2),
        "18ddce4b50293b7b1040b5d8ed75fbad2073458660ff50855ec8cf963e87aa8a",
    ),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_GOLDEN))
def test_library_output_is_frozen(name):
    make, digest = LIBRARY_GOLDEN[name]
    assert hashlib.sha256(json.dumps(make(), sort_keys=True).encode()).hexdigest() == digest


# (dimension, inconclusive, equations, unknowns, linear_kernel, quadratic_decided)
EXTENSION_GOLDEN = {
    "a2-b0": (
        lambda: build_window(IntermediateSpec("Aab", F(2), F(0)), -12, 12),
        (0, False, 1048, 282, 1, True),
    ),
    "a0-b1": (
        lambda: build_window(IntermediateSpec("Aab", F(0), F(1)), -10, 10),
        (0, False, 856, 234, 1, True),
    ),
    "sum": (
        lambda: direct_sum(
            build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -12, 12),
            build_window(IntermediateSpec("Aab", F(1, 2), F(1, 2)), -12, 12),
        ),
        (0, False, 4192, 1128, 0, True),
    ),
}


@pytest.mark.parametrize("name", sorted(EXTENSION_GOLDEN))
def test_extension_system_is_frozen(name):
    make, expected = EXTENSION_GOLDEN[name]
    r = extension_space(make(), 2)
    assert (r.dimension, r.inconclusive, r.equations, r.unknowns, r.linear_kernel, r.quadratic_decided) == expected
