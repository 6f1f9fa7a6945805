"""Acceptance suite: one test per criterion, every check exact (zero tolerance).

Each test prints a single PASS line once its criterion holds, so running

    pytest tests/test_acceptance.py -v -s

gives one line per criterion.  The expected values below were frozen
ahead of the build from independent oracles: the colored-partition
generating function for weight-space dimensions, hand row reduction for
kernel data, and direct expansion for structure constants.
"""

import json
import random
import time
from fractions import Fraction

from blocklie import identities
from blocklie.algebra import (
    BLOCK_B,
    BLOCK_BBAR,
    VIRASORO,
    W_1INF,
    BasisKey,
    LaurentOp,
    associated_graded_check,
    bracket,
    gen,
    laurent_bracket,
    quotient,
    verify_algebra_axioms,
    vir_consistency,
)
from blocklie.modules import (
    IntermediateSpec,
    build_window,
    check_module_axioms,
    core_spanning_check,
    extend_trivially,
    extension_space,
    find_intertwiner,
    irreducible_verdict,
)
from blocklie.reporting import dumps_report
from blocklie.verma import WeightFunctional, partition_dimensions, singular_vectors, verma_basis
from blocklie.windows import adjoint_window

F = Fraction

A_GRID = (F(0), F(1), F(1, 2), F(-3, 2))
B_GRID = (F(0), F(1, 2), F(1), F(2))


def announce(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_algebra_axioms():
    start = time.time()
    assert verify_algebra_axioms(BLOCK_B, 5, 3) == []
    assert verify_algebra_axioms(BLOCK_BBAR, 5, 3) == []
    assert verify_algebra_axioms(VIRASORO, 8) == []
    assert verify_algebra_axioms(W_1INF, 4, 3) == []
    for n in range(4):
        assert verify_algebra_axioms(quotient(0, n), 5, n) == []
    assert time.time() - start < 120
    announce(1, "algebra-axioms")


def test_criterion_02_virasoro_consistency():
    report = vir_consistency(10)
    assert report["homomorphism"] is True
    assert report["c0"] == "1/2"
    assert report["quotient_matches"] is True
    announce(2, "virasoro-consistency")


def test_criterion_03_laurent_realization():
    for a in range(-5, 6):
        for b in range(-5, 6):
            for i in range(5):
                for j in range(5):
                    realized = laurent_bracket(LaurentOp.monomial(a, i + 1), LaurentOp.monomial(b, j + 1))
                    assert realized.to_element() == bracket(gen(BLOCK_B, a, i), gen(BLOCK_B, b, j))
    spot = laurent_bracket(LaurentOp.monomial(2, 1), LaurentOp.monomial(-2, 1))
    assert spot.coeffs == {1: F(-4)} and spot.central == 1
    announce(3, "laurent-realization")


def test_criterion_04_associated_graded():
    assert associated_graded_check(4, 3) == []
    announce(4, "associated-graded")


def test_criterion_05_intermediate_series_axioms():
    specs = [IntermediateSpec("Aab", a, b) for a in (F(0), F(1, 2), F(-3, 2)) for b in B_GRID]
    specs += [IntermediateSpec(fam, a) for fam in ("Aa", "Ba") for a in (F(0), F(1, 2), F(-3, 2))]
    extra = [BasisKey(1, 1), BasisKey(1, 2)]
    for spec in specs:
        window = build_window(spec, -12, 12)
        assert check_module_axioms(window, 4) == [], spec
        extended = extend_trivially(window, 2)
        assert check_module_axioms(extended, 4, extra_keys=extra) == [], spec
    announce(5, "intermediate-series-axioms")


def test_criterion_06_irreducibility_grid():
    start = time.time()
    for a in A_GRID:
        for b in B_GRID:
            verdict = irreducible_verdict(IntermediateSpec("Aab", a, b), -8, 8)
            assert verdict["agree"], (a, b, verdict)
    assert time.time() - start < 60
    announce(6, "irreducibility-grid")


def test_criterion_07_isomorphism():
    found = find_intertwiner(
        build_window(IntermediateSpec("Aab", F(1, 2), F(1)), -8, 8),
        build_window(IntermediateSpec("Aab", F(1, 2), F(0)), -8, 8),
    )
    assert found is not None
    missing = find_intertwiner(
        build_window(IntermediateSpec("Aab", F(0), F(1)), -8, 8),
        build_window(IntermediateSpec("Aab", F(0), F(0)), -8, 8),
    )
    assert missing is None
    announce(7, "isomorphism")


def test_criterion_08_trivial_level_positive_action():
    for a in A_GRID:
        for b in B_GRID:
            spec = IntermediateSpec("Aab", a, b)
            if not irreducible_verdict(spec, -8, 8)["criterion"]:
                continue
            report = extension_space(build_window(spec, -12, 12), 2)
            assert report.dimension == 0, (a, b, report)
            assert not report.inconclusive
            assert report.quadratic_decided
    announce(8, "trivial-level-positive-action")


def test_criterion_09_shift_system_machinery():
    start = time.time()
    nested = identities.nested_bracket_identity()
    assert nested.status == identities.STATUS_EXACT and nested.passed
    _, det = identities.shift_system()
    assert det.degree_in("i") <= 6
    leading = identities.shift_system_leading_coefficient()
    assert leading.status in (
        identities.STATUS_EXACT,
        identities.STATUS_NORMALIZED,
        identities.STATUS_DISCREPANCY,
    )
    if leading.status == identities.STATUS_DISCREPANCY:
        # a recorded mismatch must come with the exact nonvanishing witness
        assert leading.details["evaluations_nonzero"]
        assert leading.details["evaluation_count"] == 27
    assert leading.passed
    assert time.time() - start < 60
    announce(9, "shift-system-machinery")


def test_criterion_10_window_operator_identities():
    for band in (1, 2):
        window = adjoint_window(0, band, -4, 4)
        for degree in (1, 2):
            for coeffs in ([F(0), F(1)], [F(0), F(0), F(1)], [F(0), F(0), F(0), F(1)]):
                report = identities.derivation_rule_check(window, coeffs, degree)
                assert report.passed, (band, degree, report.details)
        chain = identities.nilpotency_chain_check(window)
        assert chain.passed and chain.details["violations"] == []
    for a in A_GRID:
        for b in B_GRID:
            assert core_spanning_check(build_window(IntermediateSpec("Aab", a, b), -8, 8)), (a, b)
    announce(10, "window-operator-identities")


def test_criterion_11_verma_dimensions_and_singular_vectors():
    start = time.time()
    # oracle values frozen from the generating function prod (1-q^m)^-(n+1)
    assert partition_dimensions(1, 6) == [1, 2, 5, 10, 20, 36, 65]
    assert partition_dimensions(0, 6) == [1, 1, 2, 3, 5, 7, 11]
    assert [len(verma_basis(1, d)) for d in range(1, 7)] == [2, 5, 10, 20, 36, 65]
    assert [len(verma_basis(0, d)) for d in range(1, 7)] == [1, 2, 3, 5, 7, 11]
    rng = random.Random(2024)
    lam = WeightFunctional(
        (F(rng.randint(1, 60), rng.randint(1, 9)), F(rng.randint(1, 60), rng.randint(1, 9))),
        F(rng.randint(-9, 9), rng.randint(1, 4)),
    )
    for depth in (1, 2, 3):
        assert singular_vectors(lam, 1, depth) == []
    trivial = WeightFunctional((F(0), F(0)), F(0))
    kernel = singular_vectors(trivial, 1, 1)
    assert len(kernel) == 2 and all(vec for vec in kernel)
    assert time.time() - start < 120
    announce(11, "verma-dimensions-and-singular-vectors")


def test_criterion_12_deterministic_reports():
    def lemma_payload():
        return dumps_report({"reports": [r.to_json() for r in identities.run_standard_suite()]})

    assert lemma_payload() == lemma_payload()

    def module_payload():
        window = extend_trivially(build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -4, 4), 1)
        return dumps_report(window.to_json())

    first = module_payload()
    assert first == module_payload()
    json.loads(first)  # stays valid JSON
    announce(12, "deterministic-reports")
