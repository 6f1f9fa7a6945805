"""Identity-verification lab: symbolic brackets, the shift system, window operators."""

from fractions import Fraction

import pytest

from blocklie import identities as ident
from blocklie.algebra import BLOCK_B, BasisKey, bracket, gen
from blocklie.modules import IntermediateSpec, build_window, extend_trivially
from blocklie.rationals import accumulate
from blocklie.windows import adjoint_window
from test_modules import with_actions

F = Fraction


def test_nested_bracket_identity_symbolic():
    report = ident.nested_bracket_identity()
    assert report.status == ident.STATUS_EXACT
    assert report.passed
    assert all(s["equal"] for s in report.details["spot_checks"])


def _reference_sym_bracket(x, y):
    """``sym_bracket`` frozen from before it read ``bracket_terms``: the coefficient written out."""
    out = {}
    for (d1, l1), c1 in x.items():
        for (d2, l2), c2 in y.items():
            coeff = (l1 + 1) * d2 - (l2 + 1) * d1
            accumulate(out, ((BasisKey(d1 + d2, l1 + l2), coeff * c1 * c2),))
    return out


def test_sym_bracket_matches_reference_on_the_lemma_operands():
    zero = ident._const(0)
    l_a = ident.sym_gen(ident.ALPHA, zero)
    l_b = ident.sym_gen(ident.BETA, zero)
    l_1i = ident.sym_gen(ident._const(1), ident.I_SYM)
    inner = ident.sym_bracket(l_b, l_1i)
    assert inner == _reference_sym_bracket(l_b, l_1i)
    mixed = {**l_a, **accumulate({}, l_1i.items(), ident.KT + 2)}
    for x, y in ((l_a, inner), (inner, l_a), (mixed, inner), (mixed, mixed)):
        assert list(ident.sym_bracket(x, y).items()) == list(_reference_sym_bracket(x, y).items())


def test_sym_bracket_rejects_a_central_pair():
    zero, one = ident._const(0), ident._const(1)
    # degrees and levels both sum to zero, where B has a central term
    with pytest.raises(ValueError, match="central term"):
        ident.sym_bracket(ident.sym_gen(ident.ALPHA, zero), ident.sym_gen(-ident.ALPHA, zero))
    # a zero degree sum at a nonzero level sum has no central term
    assert ident.sym_bracket(ident.sym_gen(ident.ALPHA, zero), ident.sym_gen(-ident.ALPHA, one))


def test_lemma_report_values():
    first = ident.LemmaReport("a", ident.STATUS_EXACT, True, None, None, {})
    second = ident.LemmaReport("a", ident.STATUS_EXACT, True, None, None, {})
    assert first == second and first.details == {}
    first.details["k"] = 1
    assert second.details == {} and first != second
    renamed = first._replace(claim="b")
    assert first.claim == "a" and renamed.details is first.details
    assert renamed.to_json() == {"claim": "b", "status": "exact", "passed": True, "computed": None, "stated": None, "details": {"k": 1}}
    assert repr(renamed) == "LemmaReport(claim='b', status='exact', passed=True, computed=None, stated=None, details={'k': 1})"
    with pytest.raises(TypeError):
        hash(renamed)
    # no field has a default, so no two reports can share a default details dict
    with pytest.raises(TypeError):
        ident.LemmaReport("a", ident.STATUS_EXACT, True, None, None)


def test_nested_bracket_numeric_values():
    # prefactored nested bracket at (1, 2, 1) gives 15 on the target key
    left = bracket(gen(BLOCK_B, 1, 0), bracket(gen(BLOCK_B, 2, 0), gen(BLOCK_B, 1, 1))).scale(1 - 2 * 3)
    assert (left - gen(BLOCK_B, 4, 1, 15)).is_zero()
    # a shared vanishing factor kills both sides at (2, 3, 1)
    right = bracket(gen(BLOCK_B, 5, 0), gen(BLOCK_B, 1, 1)).scale(F(1 - 2 * 3) * F(1 + 3 - 2 * 2))
    assert right.is_zero()


def test_shift_system_shape():
    rows, det = ident.shift_system()
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    for row in rows:
        for entry in row:
            assert entry.degree_in("i") <= 2
    assert det.degree_in("i") == 6


def test_shift_system_is_computed_once():
    first = ident.shift_system()
    assert ident.shift_system() is first
    rows, _ = first
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)


def test_shift_system_report():
    report = ident.shift_system_report()
    assert report.passed
    assert report.details["quadratic_part_matches_display"]
    assert report.details["middle_row_quadratic_is_diagonal"]


def test_leading_coefficient_report():
    report = ident.shift_system_leading_coefficient()
    # the raw determinant either matches the stated closed form (possibly up
    # to one monomial factor) or the mismatch is recorded with both values
    assert report.status in (
        ident.STATUS_EXACT,
        ident.STATUS_NORMALIZED,
        ident.STATUS_DISCREPANCY,
    )
    assert report.computed and report.stated
    # the operative claim: the determinant is nonzero on the whole grid
    assert report.passed
    assert report.details["evaluations_nonzero"]
    assert report.details["evaluation_count"] == 27


def test_determinant_nonzero_at_quoted_point():
    _, det = ident.shift_system()
    value = det.evaluate({"alpha": 20, "i": 20, "kt": F(1, 3), "bp": 2, "bq": 5})
    assert value != 0


def _entry_equation_oracle(a, b, kt, i, bp, bq):
    # hand transcription of the extremal-entry equation, kept independent of
    # the symbolic builder: returns {unknown offset: coefficient}
    pre1 = 1 - (i + 1) * (a + b)
    pre2 = (1 - (i + 1) * b) * (1 + b - (i + 1) * a)
    eq = {0: F(0), b: F(0), a: F(0), a + b: F(0)}
    eq[0] += pre1 * (1 + b + kt + bq * a) * (1 + kt + bq * b)
    eq[b] -= pre1 * (1 + b + kt + bq * a) * (kt + bp * b)
    eq[a] -= pre1 * (1 + a + kt + bq * b) * (kt + bp * a)
    eq[a + b] += pre1 * (a + kt + bp * b) * (kt + bp * a)
    eq[0] -= pre2 * (1 + kt + bq * (a + b))
    eq[a + b] += pre2 * (kt + bp * (a + b))
    return eq


def test_shift_system_against_numeric_oracle():
    import random

    rng = random.Random(77)
    _, det = ident.shift_system()
    for _ in range(12):
        alpha = rng.randint(1, 6)
        i = rng.randint(0, 4)
        kt = F(rng.randint(-9, 9), rng.randint(1, 5))
        bp = F(rng.randint(-6, 6), rng.randint(1, 4))
        bq = F(rng.randint(-6, 6), rng.randint(1, 4))
        # three instantiations: degrees (a,a), (a,-a), (-a,-a) at shifted bases
        matrix = []
        for deg_a, deg_b, shift in ((alpha, alpha, -alpha), (alpha, -alpha, 0), (-alpha, -alpha, alpha)):
            eq = _entry_equation_oracle(deg_a, deg_b, kt + shift, i, bp, bq)
            row = {off: F(0) for off in (-alpha, 0, alpha)}
            for slot, coeff in eq.items():
                row[shift + slot] += coeff
            matrix.append([row[-alpha], row[0], row[alpha]])
        m = matrix
        oracle_det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        symbolic = det.evaluate({"alpha": alpha, "i": i, "kt": kt, "bp": bp, "bq": bq})
        assert symbolic == oracle_det


def test_leading_coefficient_degenerate_sample():
    _, det = ident.shift_system()
    top = det.coeff_of("i", 6)
    collapsed = top.substitute("bp", 0).substitute("bq", 0).substitute("kt", 0)
    assert not collapsed.is_zero()


def test_monomial_ratio_helper():
    a = ident.ALPHA
    stated = 1 + 2 * a
    computed = (a ** 3).scale(-2) * stated
    ratio = ident._monomial_ratio(computed, stated)
    assert ratio is not None and len(ratio.terms) == 1
    assert ident._monomial_ratio(stated + 1, stated) is None


def test_edge_product_report():
    report = ident.edge_product_diagonals()
    assert report.passed and report.status == ident.STATUS_EXACT
    assert report.details["structural_split"]
    assert report.details["degenerate_reduces_to_scalars"]
    assert report.details["nonvanishing"]


def test_edge_product_values():
    # inbound product at slope 0 and degrees (10, 10, 10) is nonzero
    pre1 = F(1 - 11 * 20)
    pre2 = F(1 - 11 * 10) * F(1 + 10 - 11 * 10)
    value = pre1 * F(-11) * F(-21) + pre2 * F(-21)
    assert value != 0


def test_derivation_rule_on_adjoint_windows():
    for band in (1, 2):
        window = adjoint_window(0, band, -4, 4)
        for degree in (1, 2):
            for coeffs in ([F(0), F(1)], [F(0), F(0), F(1)], [F(0), F(0), F(0), F(1)]):
                report = ident.derivation_rule_check(window, coeffs, degree)
                assert report.passed, report.details


def test_derivation_rule_constant_polynomial():
    window = adjoint_window(0, 1, -4, 4)
    report = ident.derivation_rule_check(window, [F(7)], 1)
    assert report.passed  # derivative term vanishes, both sides are 7 * L


def test_derivation_rule_linear_is_bracket_instance():
    window = adjoint_window(0, 1, -3, 3)
    report = ident.derivation_rule_check(window, [F(0), F(1)], 2)
    assert report.passed


def test_nilpotency_chain_on_adjoint():
    for band in (1, 2):
        report = ident.nilpotency_chain_check(adjoint_window(0, band, -4, 4))
        assert report.passed
        assert report.details["core_annihilated"]
        assert report.details["violations"] == []


def test_nilpotency_chain_on_trivial_extension():
    window = extend_trivially(build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -8, 8), 1)
    report = ident.nilpotency_chain_check(window, level=1)
    assert report.passed
    assert report.computed["f_degree"] == 5  # core band of five 1-dim spaces


def test_nilpotency_chain_scalar_fixture():
    # replace the top-level degree-0 action by the scalar 3 on every space:
    # its characteristic polynomial has 3 as a root, so the squared chain kills
    window = extend_trivially(build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -8, 8), 1)
    from blocklie.algebra import BasisKey
    from blocklie.linalg import RationalMatrix

    fixture = with_actions(window, {(BasisKey(0, 1), k): RationalMatrix.from_rows([[F(3)]]) for k in window.indices()})
    report = ident.nilpotency_chain_check(fixture, level=1)
    assert report.details["core_annihilated"]
    assert report.passed


def test_standard_suite_passes():
    reports = ident.run_standard_suite()
    assert reports == sorted(reports, key=lambda r: r.claim)
    assert all(r.passed for r in reports)
    statuses = {r.claim: r.status for r in reports}
    assert statuses["nested-bracket-identity"] == ident.STATUS_EXACT
    assert statuses["shift-system"] == ident.STATUS_EXACT


def test_leading_coefficient_records_content_and_residual():
    report = ident.shift_system_leading_coefficient()
    assert report.status == ident.STATUS_DISCREPANCY
    a, kt, bp, bq = ident.ALPHA, ident.KT, ident.BP, ident.BQ
    primitive = (a ** 2).scale(4) * (bp ** 2 - bp - bq ** 2 + bq) + kt.scale(2) + 1
    residual = (a ** 2).scale(-8) * (bp ** 2 - bq ** 2 + bq) + a.scale(2)
    assert report.details["content"] == "alpha^6" == repr(a ** 6)
    assert report.details["primitive_part"] == repr(primitive)
    assert report.details["residual"] == repr(residual)
    _, det = ident.shift_system()
    assert det.coeff_of("i", 6) == a ** 6 * primitive
    assert ident.STATED_LEADING - primitive == residual


def test_monomial_ratio_exact_on_int_coefficients():
    # int / int would give the float 1/3, which is not exactly one third,
    # so the product check would fail and the ratio be lost
    a = ident.ALPHA
    stated = 3 + a.scale(6)
    computed = a ** 2 + (a ** 3).scale(2)
    assert all(type(c) is int for c in (*stated.terms.values(), *computed.terms.values()))
    ratio = ident._monomial_ratio(computed, stated)
    assert ratio is not None
    (coeff,) = ratio.terms.values()
    assert type(coeff) is Fraction and coeff == F(1, 3)
    assert ratio == (a ** 2).scale(F(1, 3))


def test_standard_suite_builds_one_window_per_band(monkeypatch):
    built = []

    def counting_window(*args):
        built.append(args)
        return adjoint_window(*args)

    first = [r.to_json() for r in ident.run_standard_suite()]
    monkeypatch.setattr(ident, "adjoint_window", counting_window)
    second = [r.to_json() for r in ident.run_standard_suite()]
    assert built == [(0, 1, -4, 4), (0, 2, -4, 4)]
    assert second == first
    assert [r["claim"] for r in first] == sorted(
        ["nested-bracket-identity", "shift-system", "shift-system-leading-coefficient", "edge-product-diagonals"]
        + [
            f"derivation-rule-band{band}-deg{degree}-power{power}"
            for band in (1, 2)
            for degree in (1, 2)
            for power in (1, 2, 3)
        ]
        + ["nilpotency-chain-band1", "nilpotency-chain-band2"]
    )
