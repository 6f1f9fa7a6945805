"""Symbolic and matrix-level verification of the classification machinery.

Three layers of checks live here.

1. A purely symbolic identity between nested brackets of level-0
   generators around a degree-1 generator of symbolic level, verified
   at the level of polynomial coefficients and cross-checked against
   the numeric bracket engine.  A symbolic generator is a ``BasisKey``
   whose degree and level are polynomials, so ``algebra._bilinear``
   brackets it with ``bracket_terms`` itself.

2. The shift system: applying that identity to a uniformly bounded
   window whose level-0 actions are upper triangular with diagonals
   kt + b * degree turns the unknown degree-1 action into a family of
   scalar unknowns t_k.  Instantiating the free degrees at (a, a),
   (a, -a) and (-a, -a) with shifted base indices yields three linear
   equations in t_{k-a}, t_k, t_{k+a}; the determinant is a polynomial
   of degree at most six in the level symbol whose leading coefficient
   decides that the unknowns vanish for large degrees.  The leading
   coefficient is compared against its published closed form and any
   mismatch is recorded verbatim rather than resolved by guesswork,
   while the operative nonvanishing is witnessed on an explicit grid.

3. Matrix functional calculus on concrete windows: the derivation rule
   g(X) Y = Y g(X) + c g'(X) Z for X the level-band top generator of
   degree zero, and the nilpotency chain that squares a characteristic
   polynomial to annihilate the window reached from the core band.

Reports (``LemmaReport`` tuples) never silently replace a computed
value with a stated one; both travel together with an explicit match
status.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import algebra
from .algebra import BasisKey, bracket, gen
from .linalg import RationalMatrix, char_poly, eval_poly_matrix
from .multipoly import MultiPoly
from .rationals import ZERO, accumulate, format_rational
from .windows import WindowedModule, adjoint_window, interior

ALPHABET = ("alpha", "beta", "i", "kt", "bp", "bq")

STATUS_EXACT = "exact"
STATUS_NORMALIZED = "matches-up-to-stated-normalization"
STATUS_DISCREPANCY = "discrepancy-recorded"


def _sym(name: str) -> MultiPoly:
    return MultiPoly.symbol(ALPHABET, name)


def _const(v) -> MultiPoly:
    return MultiPoly.const(ALPHABET, v)


ALPHA, BETA, I_SYM, KT, BP, BQ = (_sym(n) for n in ALPHABET)


class LemmaReport(NamedTuple):
    """One identity's verdict, with the computed and the stated value side by side."""

    claim: str
    status: str
    passed: bool
    computed: object
    stated: object
    details: dict

    def to_json(self) -> dict:
        return self._asdict()


# ---------------------------------------------------------------------------
# symbolic bracket on generators with symbolic degree and level
# ---------------------------------------------------------------------------

# a generator's key holds its degree and level as polynomials; the value
# is its MultiPoly coefficient
SymbolicElement = dict[BasisKey, MultiPoly]


def sym_gen(degree: MultiPoly, level: MultiPoly) -> SymbolicElement:
    return {BasisKey(degree, level): _const(1)}


def sym_bracket(x: SymbolicElement, y: SymbolicElement) -> SymbolicElement:
    """Bilinear bracket in B with generic symbolic degrees, through ``algebra._bilinear``.

    Central contributions are delta-supported at degree and level sum
    zero and vanish identically for generic symbolic degrees, so they do
    not appear here; a pair of keys whose degrees and levels both sum to
    the zero polynomial raises ValueError.  Numeric spot checks go
    through the full engine.
    """
    for kx in x:
        for ky in y:
            if not (kx.alpha + ky.alpha or kx.level + ky.level):
                raise ValueError(f"[{kx}, {ky}] may carry a central term, which a symbolic element has no slot for")
    return algebra._bilinear(algebra.bracket_terms, algebra.BLOCK_B, x.items(), y.items())[0]


def _prefactors() -> tuple[MultiPoly, MultiPoly]:
    pre1 = _const(1) - (I_SYM + 1) * (ALPHA + BETA)
    pre2 = (_const(1) - (I_SYM + 1) * BETA) * (_const(1) + BETA - (I_SYM + 1) * ALPHA)
    return pre1, pre2


def nested_bracket_identity() -> LemmaReport:
    """(1-(i+1)(a+b)) [L_a,[L_b,L_{1,i}]] = (1-(i+1)b)(1+b-(i+1)a) [L_{a+b},L_{1,i}].

    Both sides are multiples of the degree a+b+1 level-i generator; the
    report verifies exact symbolic equality of the shared coefficient
    and backs it with numeric spot checks through the bracket engine.
    """
    level0 = _const(0)
    l_1i = sym_gen(_const(1), I_SYM)
    pre1, pre2 = _prefactors()
    lhs = accumulate({}, sym_bracket(sym_gen(ALPHA, level0), sym_bracket(sym_gen(BETA, level0), l_1i)).items(), pre1)
    rhs = accumulate({}, sym_bracket(sym_gen(ALPHA + BETA, level0), l_1i).items(), pre2)
    target_key = BasisKey(ALPHA + BETA + 1, I_SYM)
    symbolic_equal = lhs == rhs and set(lhs) <= {target_key}
    expected = pre1 * (_const(1) - (I_SYM + 1) * BETA) * (_const(1) + BETA - (I_SYM + 1) * ALPHA)
    coefficient_ok = lhs.get(target_key, _const(0)) == expected

    spot_checks = []
    for a, b, i in ((1, 2, 1), (2, 3, 1), (-1, 3, 2), (4, -2, 3)):
        v = algebra.BLOCK_B
        inner = bracket(gen(v, b, 0), gen(v, 1, i))
        left = bracket(gen(v, a, 0), inner).scale(1 - (i + 1) * (a + b))
        right = bracket(gen(v, a + b, 0), gen(v, 1, i)).scale(
            Fraction(1 - (i + 1) * b) * Fraction(1 + b - (i + 1) * a)
        )
        spot_checks.append({"point": [a, b, i], "equal": left == right, "value": repr(left)})
    passed = symbolic_equal and coefficient_ok and all(s["equal"] for s in spot_checks)
    return LemmaReport(
        claim="nested-bracket-identity",
        status=STATUS_EXACT if passed else STATUS_DISCREPANCY,
        passed=passed,
        computed=repr(lhs.get(target_key, _const(0))),
        stated=repr(expected),
        details={"spot_checks": spot_checks},
    )


# ---------------------------------------------------------------------------
# the shift system and its determinant
# ---------------------------------------------------------------------------

def _entry_scalar(pref: MultiPoly, left, t_off: MultiPoly, right) -> tuple[MultiPoly, MultiPoly]:
    """Scalar contribution of pref * (prod left A) T (prod right A) at the extremal entry.

    Upper-triangular factors survive only through their diagonals at
    the extremal position: a factor multiplying the unknown from the
    left contributes its diagonal with the bq slope, from the right
    with the bp slope.  Each A is a pair (degree, source offset); its
    diagonal is kt + offset + slope * degree.
    """
    coeff = pref
    for delta, off in left:
        coeff = coeff * (KT + off + BQ * delta)
    for delta, off in right:
        coeff = coeff * (KT + off + BP * delta)
    return t_off, coeff


def _generic_equation() -> dict[MultiPoly, MultiPoly]:
    """The extremal-entry equation as {unknown offset: coefficient}, summed to zero."""
    pre1, pre2 = _prefactors()
    one = _const(1)
    zero = _const(0)
    a, b = ALPHA, BETA
    terms = (
        _entry_scalar(pre1, [(a, one + b), (b, one)], zero, []),
        _entry_scalar(-pre1, [(a, one + b)], b, [(b, zero)]),
        _entry_scalar(-pre1, [(b, one + a)], a, [(a, zero)]),
        _entry_scalar(pre1, [], a + b, [(b, a), (a, zero)]),
        _entry_scalar(-pre2, [(a + b, one)], zero, []),
        _entry_scalar(pre2, [], a + b, [(a + b, zero)]),
    )
    return accumulate({}, terms)


def _instantiate(poly: MultiPoly, beta_sign: int, negate_alpha: bool, kt_shift: int) -> MultiPoly:
    out = poly.substitute("beta", ALPHA.scale(beta_sign))
    if negate_alpha:
        out = out.substitute("alpha", -ALPHA)
    if kt_shift:
        out = out.substitute("kt", KT + ALPHA.scale(kt_shift))
    return out


def shift_system() -> tuple[tuple[tuple[MultiPoly, ...], ...], MultiPoly]:
    """Three instantiated equations on (t_{k-a}, t_k, t_{k+a}) and their determinant.

    The free degree pair and base index are specialized to (a, a) at
    base k-a, (a, -a) at base k, and (-a, -a) at base k+a.  Every row
    has level-symbol degree at most 2 and the determinant at most 6;
    both bounds are asserted.  The result is computed once per process
    and shared, so the rows are tuples.
    """
    return _shift_system()


# cached separately so that shift_system stays a plain function with a
# code object, which profilers and the layer tracer in bench/ key on
@functools.cache
def _shift_system() -> tuple[tuple[tuple[MultiPoly, ...], ...], MultiPoly]:
    generic = _generic_equation()
    instantiations = [
        (1, False, -1),
        (-1, False, 0),
        (1, True, 1),
    ]
    base_shifts = [-1, 0, 1]
    columns = {-ALPHA: 0, 0: 1, ALPHA: 2}
    rows: list[tuple[MultiPoly, ...]] = []
    for (beta_sign, negate_alpha, kt_shift), base in zip(instantiations, base_shifts):
        row = [_const(0), _const(0), _const(0)]
        for off, coeff in generic.items():
            off_inst = _instantiate(off, beta_sign, negate_alpha, 0) + ALPHA.scale(base)
            col = columns.get(off_inst)
            if col is None:
                raise AssertionError(f"unknown offset {off_inst} outside the three-term band")
            row[col] = row[col] + _instantiate(coeff, beta_sign, negate_alpha, kt_shift)
        rows.append(tuple(row))

    for row in rows:
        for entry in row:
            if entry.degree_in("i") > 2:
                raise AssertionError("row entry exceeds level-symbol degree 2")
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    if det.degree_in("i") > 6:
        raise AssertionError("determinant exceeds level-symbol degree 6")
    return tuple(rows), det


def shift_system_report() -> LemmaReport:
    """Degree bounds and the quadratic-part shape of the generic equation."""
    rows, det = shift_system()
    generic = _generic_equation()
    # quadratic part in the level symbol: only the two band-end terms survive
    quad_ok = True
    expect_t0 = -(ALPHA * BETA) * (_const(1) + KT + BQ * (ALPHA + BETA))
    expect_tab = (ALPHA * BETA) * (KT + BP * (ALPHA + BETA))
    for off, coeff in generic.items():
        quad = coeff.coeff_of("i", 2)
        if off == _const(0):
            quad_ok &= quad == expect_t0
        elif off == ALPHA + BETA:
            quad_ok &= quad == expect_tab
        else:
            quad_ok &= quad.is_zero()
    # middle-row quadratic part involves only the middle unknown, e.g. at degree 1
    mid = [entry.coeff_of("i", 2).substitute("alpha", 1) for entry in rows[1]]
    middle_ok = mid[0].is_zero() and mid[2].is_zero() and not mid[1].is_zero()
    passed = quad_ok and middle_ok
    return LemmaReport(
        claim="shift-system",
        status=STATUS_EXACT if passed else STATUS_DISCREPANCY,
        passed=passed,
        computed={"determinant_i_degree": det.degree_in("i")},
        stated=None,
        details={
            "quadratic_part_matches_display": quad_ok,
            "middle_row_quadratic_is_diagonal": middle_ok,
        },
    )


def _swap_symbols(poly: MultiPoly, s1: str, s2: str) -> MultiPoly:
    i1 = poly.alphabet.index(s1)
    i2 = poly.alphabet.index(s2)
    terms = {}
    for exps, c in poly.terms.items():
        swapped = list(exps)
        swapped[i1], swapped[i2] = swapped[i2], swapped[i1]
        terms[tuple(swapped)] = c
    return MultiPoly(poly.alphabet, terms)


def _monomial_ratio(computed: MultiPoly, stated: MultiPoly) -> MultiPoly | None:
    """A single-term polynomial m with computed == m * stated, if one exists."""
    if stated.is_zero() or computed.is_zero():
        return None
    lead_c = max(computed.terms)
    lead_s = max(stated.terms)
    exps = tuple(a - b for a, b in zip(lead_c, lead_s))
    if any(e < 0 for e in exps):
        return None
    mono = MultiPoly(ALPHABET, {exps: Fraction(computed.terms[lead_c]) / stated.terms[lead_s]})
    return mono if stated * mono == computed else None


# 1 + 2*(alpha + kt) - 4*alpha^2*(bp + bp^2 + bq - bq^2), written out term
# by term over ALPHABET so that importing this module multiplies nothing
STATED_LEADING = MultiPoly(
    ALPHABET,
    {
        (0, 0, 0, 0, 0, 0): 1,
        (1, 0, 0, 0, 0, 0): 2,
        (0, 0, 0, 1, 0, 0): 2,
        (2, 0, 0, 0, 1, 0): -4,
        (2, 0, 0, 0, 2, 0): -4,
        (2, 0, 0, 0, 0, 1): -4,
        (2, 0, 0, 0, 0, 2): 4,
    },
)

PARAMETER_SAMPLES = (
    (Fraction(1, 3), Fraction(2), Fraction(5)),
    (Fraction(7, 2), Fraction(-1, 3), Fraction(4)),
    (Fraction(-5, 4), Fraction(3, 5), Fraction(-2, 7)),
)

NONVANISHING_GRID = (10, 20, 50)


def shift_system_leading_coefficient() -> LemmaReport:
    """The level-degree-6 coefficient of the determinant, against its stated form.

    The raw determinant may differ from the published polynomial by row
    scalings that are not spelled out; the report records the computed
    coefficient, attempts an exact or single-monomial-factor match, and
    independently witnesses the operative claim by exact evaluation of
    the full determinant at every degree and level in NONVANISHING_GRID
    for each generic rational sample (kt, bp, bq) in PARAMETER_SAMPLES.
    """
    _, det = shift_system()
    computed = det.coeff_of("i", 6)
    stated = STATED_LEADING
    details: dict = {}
    if computed == stated:
        status = STATUS_EXACT
    else:
        mono = _monomial_ratio(computed, stated)
        if mono is not None:
            status = STATUS_NORMALIZED
            details["normalization_factor"] = repr(mono)
        else:
            status = STATUS_DISCREPANCY
            content, primitive = computed.content_split()
            details["content"] = repr(content)
            details["primitive_part"] = repr(primitive)
            details["residual"] = repr(stated - primitive)
            swapped = _swap_symbols(stated, "bp", "bq")
            mono_swapped = _monomial_ratio(computed, swapped)
            if mono_swapped is not None:
                details["note"] = (
                    "computed coefficient equals the stated polynomial with the two "
                    f"slope symbols exchanged, times {mono_swapped!r}"
                )

    all_nonzero = True
    for kt, bp, bq in PARAMETER_SAMPLES:
        for ival in NONVANISHING_GRID:
            for aval in NONVANISHING_GRID:
                all_nonzero &= det.evaluate({"alpha": aval, "i": ival, "kt": kt, "bp": bp, "bq": bq}) != 0
    degenerate = computed.evaluate({"alpha": 1, "kt": 0, "bp": 0, "bq": 0})
    details["grid"] = list(NONVANISHING_GRID)
    details["evaluations_nonzero"] = all_nonzero
    details["evaluation_count"] = len(PARAMETER_SAMPLES) * len(NONVANISHING_GRID) ** 2
    details["degenerate_sample_value_alpha1"] = format_rational(degenerate)
    return LemmaReport(
        claim="shift-system-leading-coefficient",
        status=status,
        passed=all_nonzero,
        computed=repr(computed),
        stated=repr(stated),
        details=details,
    )


# ---------------------------------------------------------------------------
# edge products at the distinguished weight spaces
# ---------------------------------------------------------------------------

B_SAMPLES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(3))

EDGE_GRID = (10, 50, 250)


def edge_product_diagonals() -> LemmaReport:
    """Diagonals of the two boundary products and their large-parameter nonvanishing.

    With the diagonal model (source weight + slope * degree) for the
    level-0 actions at weight offset zero, the inbound product is

        P = (1-(i+1)(a+b)) A_{b,-b-1} A_{a,-a-b-1}
            + (1-(i+1)b)(1+b-(i+1)a) A_{a+b,-a-b-1}

    and the outbound product is

        Q = (1-(i+1)(a+b)) A_{a,1+b} A_{b,1}
            - (1-(i+1)b)(1+b-(i+1)a) A_{a+b,1}.

    Both are upper triangular with these diagonals; the report verifies
    the structural shape, the degenerate reduction at a=b=i=0, and
    exact nonvanishing of every diagonal at each slope in B_SAMPLES and
    each degree and level in EDGE_GRID.
    """
    pre1, pre2 = _prefactors()
    a, b = ALPHA, BETA

    def diag(delta: MultiPoly, source: MultiPoly) -> MultiPoly:
        return source + BP * delta

    p_poly = pre1 * diag(b, -b - 1) * diag(a, -a - b - 1) + pre2 * diag(a + b, -a - b - 1)
    q_poly = pre1 * diag(a, b + 1) * diag(b, 1) - pre2 * diag(a + b, _const(1))

    structural = q_poly + pre2 * diag(a + b, _const(1)) == pre1 * diag(a, b + 1) * diag(b, 1)
    at_origin_p = p_poly.substitute("alpha", 0).substitute("beta", 0).substitute("i", 0)
    at_origin_q = q_poly.substitute("alpha", 0).substitute("beta", 0).substitute("i", 0)
    degenerate_ok = at_origin_p.degree_in("bp") <= 0 and at_origin_q.degree_in("bp") <= 0

    entries = []
    all_nonzero = True
    for bval in B_SAMPLES:
        for aval in EDGE_GRID:
            for bdeg in EDGE_GRID:
                for ival in EDGE_GRID:
                    assign = {"alpha": aval, "beta": bdeg, "i": ival, "kt": 0, "bp": bval, "bq": 0}
                    pv = p_poly.evaluate(assign)
                    qv = q_poly.evaluate(assign)
                    all_nonzero &= pv != 0 and qv != 0
        # leading coefficient in the level symbol at two large fixed degree pairs
        for aval, bdeg in ((10, 50), (50, 250), (250, 10)):
            lead_p = p_poly.coeff_of("i", 2).evaluate({"alpha": aval, "beta": bdeg, "kt": 0, "bp": bval, "bq": 0})
            lead_q = q_poly.coeff_of("i", 2).evaluate({"alpha": aval, "beta": bdeg, "kt": 0, "bp": bval, "bq": 0})
            all_nonzero &= lead_p != 0 and lead_q != 0
            entries.append(
                {
                    "b": format_rational(bval),
                    "degrees": [aval, bdeg],
                    "leading_p": format_rational(lead_p),
                    "leading_q": format_rational(lead_q),
                }
            )
    passed = structural and degenerate_ok and all_nonzero
    return LemmaReport(
        claim="edge-product-diagonals",
        status=STATUS_EXACT if passed else STATUS_DISCREPANCY,
        passed=passed,
        computed={"p": repr(p_poly), "q": repr(q_poly)},
        stated=None,
        details={
            "structural_split": structural,
            "degenerate_reduces_to_scalars": degenerate_ok,
            "grid": list(EDGE_GRID),
            "b_samples": [format_rational(v) for v in B_SAMPLES],
            "nonvanishing": all_nonzero,
            "leading_coefficients": entries,
        },
    )


# ---------------------------------------------------------------------------
# operator identities on concrete windows
# ---------------------------------------------------------------------------

def _poly_derivative(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return [coeffs[m] * m for m in range(1, len(coeffs))]


def derivation_rule_check(
    mod: WindowedModule,
    g_coeffs: Sequence[Fraction],
    alpha: int,
) -> LemmaReport:
    """g(X) L = L g(X) + (j+1) alpha g'(X) Z on a level-band window.

    X is the degree-0 top-level generator, L the degree-alpha level-0
    one and Z the degree-alpha top-level one; X and Z commute in the
    quotient because their bracket lands above the band.  The identity
    and its monomial power form are asserted per weight space wherever
    the composite stays inside the window.
    """
    if mod.variant.kind != "quotient":
        raise ValueError("derivation rule check expects a level-band quotient module")
    j = mod.variant.n
    g_coeffs = [Fraction(c) for c in g_coeffs]
    gprime = _poly_derivative(g_coeffs)
    factor = Fraction((j + 1) * alpha)
    window = interior(mod.lo, mod.hi, alpha)
    checked = 0
    inconclusive = len(mod.indices()) - len(window)
    violations = []
    for k in window:
        x_src = mod.act(BasisKey(0, j), k)
        x_tgt = mod.act(BasisKey(0, j), k + alpha)
        l_mat = mod.act(BasisKey(alpha, 0), k)
        z_mat = mod.act(BasisKey(alpha, j), k)
        if x_tgt @ z_mat != z_mat @ x_src:
            violations.append({"index": k, "part": "commutation"})
            continue
        lhs = eval_poly_matrix(g_coeffs, x_tgt) @ l_mat
        rhs = l_mat @ eval_poly_matrix(g_coeffs, x_src) + (eval_poly_matrix(gprime, x_tgt) @ z_mat).scale(factor)
        if lhs != rhs:
            violations.append({"index": k, "part": "identity"})
        # running powers: X_t^m, X_s^m and X_s^(m-1)
        tgt_power = RationalMatrix.identity(x_tgt.rows)
        src_power = RationalMatrix.identity(x_src.rows)
        for m in range(1, len(g_coeffs)):
            lower = src_power
            tgt_power, src_power = tgt_power @ x_tgt, src_power @ x_src
            left = tgt_power @ l_mat - l_mat @ src_power
            right = (z_mat @ lower).scale(Fraction(m * (j + 1) * alpha))
            if left != right:
                violations.append({"index": k, "part": f"power-{m}"})
        checked += 1
    passed = checked > 0 and not violations
    return LemmaReport(
        claim=f"derivation-rule-band{j}-deg{alpha}-g{len(g_coeffs) - 1}",
        status=STATUS_EXACT if passed else STATUS_DISCREPANCY,
        passed=passed,
        computed=None,
        stated=None,
        details={"checked": checked, "inconclusive": inconclusive, "violations": violations},
    )


def _poly_mul(u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
    out = [ZERO] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    out[i + j] += a * b
    return out


def nilpotency_chain_check(mod: WindowedModule, level: int | None = None) -> LemmaReport:
    """Squared characteristic polynomial of the top-level degree-0 action kills the reach of the core.

    f is the characteristic polynomial of that action on the core band
    of indices -2..2; the derivation rule plus the in-band commutation
    force f(X)^2 to annihilate every single level-0 action applied to
    the core.  The check asserts exactly that on every composable
    instance inside the window.
    """
    j = level
    if j is None:
        if mod.variant.kind == "quotient":
            j = mod.variant.n
        else:
            j = max((g.level for g in mod.generators), default=0)
    x_key = BasisKey(0, j)
    if not mod.has_generator(x_key):
        raise ValueError(f"module does not store the degree-0 level-{j} action")
    core = [k for k in mod.indices() if -2 <= k <= 2]
    if not core:
        raise ValueError("window does not meet the core band")
    f = [Fraction(1)]
    for k in core:
        f = _poly_mul(f, char_poly(mod.act(x_key, k)))
    sanity = all(eval_poly_matrix(f, mod.act(x_key, k)).is_zero() for k in core)
    g = _poly_mul(f, f)

    checked = 0
    inconclusive = 0
    violations = []
    degrees = sorted({g.alpha for g in mod.generators if g.level == 0})
    for k in core:
        for a in degrees:
            if not mod.in_range(k + a):
                inconclusive += 1
                continue
            l_mat = mod.act(BasisKey(a, 0), k)
            chain = eval_poly_matrix(g, mod.act(x_key, k + a)) @ l_mat
            if not chain.is_zero():
                violations.append({"index": k, "degree": a})
            checked += 1
    passed = sanity and checked > 0 and not violations
    return LemmaReport(
        claim=f"nilpotency-chain-band{j}",
        status=STATUS_EXACT if passed else STATUS_DISCREPANCY,
        passed=passed,
        computed={"f_degree": len(f) - 1},
        stated=None,
        details={
            "core_annihilated": sanity,
            "checked": checked,
            "inconclusive": inconclusive,
            "violations": violations,
        },
    )


def _derivation_job(window: WindowedModule, degree: int, power: int) -> LemmaReport:
    coeffs = [ZERO] * power + [Fraction(1)]
    report = derivation_rule_check(window, coeffs, degree)
    return report._replace(claim=f"derivation-rule-band{window.variant.n}-deg{degree}-power{power}")


def run_standard_suite() -> list[LemmaReport]:
    """Every report of this module on its standard windows, sorted by claim.

    Each band's adjoint window is built once, shared by that band's
    derivation and nilpotency jobs, and dropped before the next band's.
    """
    reports = [
        nested_bracket_identity(),
        shift_system_report(),
        shift_system_leading_coefficient(),
        edge_product_diagonals(),
    ]
    for band in (1, 2):
        window = adjoint_window(0, band, -4, 4)
        for degree in (1, 2):
            for power in (1, 2, 3):
                reports.append(_derivation_job(window, degree, power))
        reports.append(nilpotency_chain_check(window))
        del window
    reports.sort(key=lambda r: r.claim)
    return reports
