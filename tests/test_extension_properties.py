"""Property test: the quadratic stage of ``extension_space`` against the decoded-matrix stage it replaced.

No CLI job reaches a linear kernel of dimension 2 or more, so small
direct sums of intermediate-series windows, which do, are drawn here.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blocklie import modules  # noqa: E402
from blocklie.algebra import BLOCK_B, BasisKey, bracket_terms  # noqa: E402
from blocklie.linalg import RationalMatrix, row_reduce  # noqa: E402
from blocklie.modules import (  # noqa: E402
    EXTENSION_BAND,
    ExtensionReport,
    IntermediateSpec,
    build_window,
    decode_unknowns,
    direct_sum,
    extension_space,
    unknown_columns,
)
from blocklie.windows import interior  # noqa: E402


def _decoded_quadratic_stage(vir_mod, level_cap, kernel, n_equations, n_unknowns):
    """The quadratic stage as it was: kernel vectors decoded into block matrices and multiplied.

    Returns the monomial system (None when it has no row) and the report.
    """
    lo, hi, dims = vir_mod.lo, vir_mod.hi, vir_mod.dims
    shapes = {
        (level, a, k): (dims[k + a], dims[k])
        for level in range(1, level_cap + 1)
        for a in EXTENSION_BAND
        for k in interior(lo, hi, a)
    }
    index = unknown_columns(shapes)
    kdim = len(kernel)
    decoded = [decode_unknowns(shapes, index, vec) for vec in kernel]
    mono_index = {}
    for m in range(kdim):
        for l in range(m, kdim):
            mono_index[("z", m, l)] = len(mono_index)
    for m in range(kdim):
        mono_index[("s", m)] = len(mono_index)

    def commutator(va, vb, a_key, b_key, k):
        left = va[(a_key[1], a_key[0], k + b_key[0])] @ vb[(b_key[1], b_key[0], k)]
        right = vb[(b_key[1], b_key[0], k + a_key[0])] @ va[(a_key[1], a_key[0], k)]
        return left - right

    quad_rows = []
    keys = [(a, i) for i in range(1, level_cap + 1) for a in EXTENSION_BAND]
    for ai in range(len(keys)):
        for bi in range(ai + 1, len(keys)):
            (a, i), (b, j) = keys[ai], keys[bi]
            coeff = Fraction(bracket_terms(BLOCK_B, BasisKey(a, i), BasisKey(b, j))[0].get(BasisKey(a + b, i + j), 0))
            if coeff and i + j <= level_cap and a + b not in EXTENSION_BAND:
                continue
            for k in interior(lo, hi, a, b, a + b):
                residual_by_mono = {}
                for m in range(kdim):
                    for l in range(m, kdim):
                        bil = commutator(decoded[m], decoded[l], (a, i), (b, j), k)
                        if l != m:
                            bil = bil + commutator(decoded[l], decoded[m], (a, i), (b, j), k)
                        if not bil.is_zero():
                            residual_by_mono[mono_index[("z", m, l)]] = bil
                if coeff and i + j <= level_cap:
                    for m in range(kdim):
                        lin = decoded[m][(i + j, a + b, k)].scale(-coeff)
                        if not lin.is_zero():
                            residual_by_mono[mono_index[("s", m)]] = lin
                if not residual_by_mono:
                    continue
                shape = next(iter(residual_by_mono.values()))
                for u in range(shape.rows):
                    for v in range(shape.cols):
                        cell = {pos: mat.entry(u, v) for pos, mat in residual_by_mono.items() if mat.entry(u, v)}
                        if cell:
                            quad_rows.append(cell)

    if not quad_rows:
        return None, ExtensionReport(kdim, False, n_equations, n_unknowns, linear_kernel=kdim)
    system = RationalMatrix.from_sparse_rows(quad_rows, len(mono_index))
    qkernel = row_reduce(system).kernel
    all_dead = all(
        all(vec.get(mono_index[("s", m)], 0) == 0 for vec in qkernel)
        or all(vec.get(mono_index[("z", m, m)], 0) == 0 for vec in qkernel)
        for m in range(kdim)
    )
    if all_dead:
        return system, ExtensionReport(0, False, n_equations, n_unknowns, linear_kernel=kdim)
    return system, ExtensionReport(kdim, True, n_equations, n_unknowns, linear_kernel=kdim, quadratic_decided=False)


# a shared a (a direct sum needs one weight offset), integral or half-integral, and b in the degenerate values
@st.composite
def sums(draw):
    a = draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1))))
    b1, b2 = (draw(st.sampled_from((Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)))) for _ in range(2))
    lo = draw(st.integers(-5, -3))
    hi = draw(st.integers(3, 5))
    level_cap = draw(st.sampled_from((1, 1, 2)))
    return a, b1, b2, lo, hi, level_cap


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(sums())
def test_quadratic_stage_matches_the_decoded_matrix_stage(case):
    a, b1, b2, lo, hi, level_cap = case
    window = direct_sum(build_window(IntermediateSpec("Aab", a, b1), lo, hi), build_window(IntermediateSpec("Aab", a, b2), lo, hi))
    calls = []

    def recording(m):
        reduction = row_reduce(m)
        calls.append((m, reduction))
        return reduction

    original = modules.row_reduce
    modules.row_reduce = recording
    try:
        report = extension_space(window, level_cap)
    finally:
        modules.row_reduce = original
    linear, linear_reduction = calls[0]
    if not linear_reduction.kernel:
        assert len(calls) == 1 and report.linear_kernel == 0
        return
    system, expected = _decoded_quadratic_stage(window, level_cap, linear_reduction.kernel, linear.rows, linear.cols)
    assert report == expected
    assert (calls[1][0] if len(calls) == 2 else None) == system
