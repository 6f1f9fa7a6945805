"""Exact computer algebra for Block-type graded Lie algebras.

The package constructs a family of Z-graded Lie algebras in exact
rational arithmetic (Virasoro, a Block-type algebra with nonnegative
levels and its level minus-one relative, the W-infinity pair, and
finite level-band quotients), materializes their graded modules on
finite windows, and mechanically verifies the bracket, module and
operator identities behind the classification of quasifinite modules.
"""

from .algebra import (
    BLOCK_B,
    BLOCK_BBAR,
    VIRASORO,
    W_1INF,
    W_INF,
    AlgebraElement,
    AlgebraVariant,
    BasisKey,
    KeyWindow,
    LaurentOp,
    associated_graded_check,
    bracket,
    central,
    gen,
    generation_closure,
    laurent_bracket,
    parse_variant,
    quotient,
    verify_algebra_axioms,
    vir_consistency,
)
from .linalg import RationalMatrix, RowReduction, char_poly, eval_poly_matrix, row_reduce, solve
from .modules import (
    IntermediateSpec,
    WindowedModule,
    act_intermediate,
    adjoint_window,
    build_window,
    check_module_axioms,
    classify_window,
    core_spanning_check,
    direct_sum,
    extend_trivially,
    extension_space,
    find_intertwiner,
    irreducible_verdict,
    submodule_closure,
    tensor,
)
from .multipoly import MultiPoly
from .rationals import format_rational, parse_rational
from .verma import (
    WeightFunctional,
    normal_order,
    partition_dimensions,
    quasifinite_report,
    singular_vectors,
    validate_positive_generators,
    verma_basis,
    verma_window,
)

__version__ = "0.1.0"
