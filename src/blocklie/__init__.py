"""Exact computer algebra for Block-type graded Lie algebras.

The package constructs a family of Z-graded Lie algebras in exact
rational arithmetic (Virasoro, a Block-type algebra with nonnegative
levels and its level minus-one relative, the W-infinity pair, and
finite level-band quotients), materializes their graded modules on
finite windows, and mechanically verifies the bracket, module and
operator identities behind the classification of quasifinite modules.

Importing the package executes none of its library modules.  Each one
is registered in ``sys.modules`` at once and executes on the first
attribute access, so a command compiles only the modules it calls.
The public names below are read from their modules on first use.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "algebra": (
            "BLOCK_B", "BLOCK_BBAR", "VIRASORO", "W_1INF", "W_INF", "AlgebraElement", "AlgebraVariant",
            "BasisKey", "KeyWindow", "LaurentOp", "associated_graded_check", "bracket", "central", "gen",
            "generation_closure", "laurent_bracket", "parse_variant", "quotient", "verify_algebra_axioms",
            "vir_consistency",
        ),
        "linalg": ("RationalMatrix", "RowReduction", "char_poly", "eval_poly_matrix", "row_reduce"),
        "modules": (
            "IntermediateSpec", "act_intermediate", "build_window", "check_module_axioms", "classify_window",
            "core_spanning_check", "direct_sum", "extend_trivially", "extension_space", "find_intertwiner",
            "irreducible_verdict", "submodule_closure", "tensor",
        ),
        "multipoly": ("MultiPoly",),
        "rationals": ("format_rational", "parse_rational"),
        "verma": (
            "WeightFunctional", "normal_order", "partition_dimensions", "quasifinite_report",
            "singular_vectors", "validate_positive_generators", "verma_basis", "verma_window",
        ),
        "windows": ("WindowedModule", "adjoint_window"),
    }.items()
    for name in names
}

__all__ = list(_HOME)


def _lazy_module(name: str):
    """Register submodule ``name``; its code runs on the first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


# not cli: ``python -m blocklie.cli`` executes it through runpy
algebra = _lazy_module("algebra")
identities = _lazy_module("identities")
linalg = _lazy_module("linalg")
modules = _lazy_module("modules")
multipoly = _lazy_module("multipoly")
rationals = _lazy_module("rationals")
reporting = _lazy_module("reporting")
verma = _lazy_module("verma")
windows = _lazy_module("windows")


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
