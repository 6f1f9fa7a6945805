"""Bracket engine: structure constants, realization, axiom sweeps, closures."""

import random
from fractions import Fraction

import pytest

from blocklie import algebra
from blocklie.algebra import (
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
    _element,
    associated_graded_check,
    bracket,
    bracket_terms,
    central,
    gen,
    generation_closure,
    laurent_bracket,
    parse_variant,
    quotient,
    verify_algebra_axioms,
    vir_consistency,
    window_keys,
)
from blocklie.linalg import Echelon
from blocklie.rationals import ZERO, format_rational


def test_block_bracket_examples():
    assert bracket(gen(BLOCK_B, 1, 0), gen(BLOCK_B, -1, 0)) == gen(BLOCK_B, 0, 0, -2)
    assert bracket(gen(BLOCK_B, 2, 0), gen(BLOCK_B, -2, 0)) == gen(BLOCK_B, 0, 0, -4) + central(BLOCK_B)
    assert bracket(gen(BLOCK_B, 0, 1), gen(BLOCK_B, 0, 2)).is_zero()
    assert bracket(gen(BLOCK_B, 1, 1), gen(BLOCK_B, 2, 0)) == gen(BLOCK_B, 3, 1, 3)


def test_virasoro_bracket_example():
    assert bracket(gen(VIRASORO, 2), gen(VIRASORO, -2)) == gen(VIRASORO, 0, 0, -4) + central(VIRASORO, Fraction(1, 2))


def test_w_bracket_examples():
    assert bracket(gen(W_1INF, 1, 1), gen(W_1INF, -1, 1)) == gen(W_1INF, 0, 1, -2)
    assert bracket(gen(W_1INF, 2, 1), gen(W_1INF, -2, 1)) == gen(W_1INF, 0, 1, -4) + central(W_1INF, -1)


def test_bbar_central_term():
    # at level -1 on both sides the leading coefficient vanishes and only
    # the central pairing a * delta_{a+b,0} delta_{i+j,-2} survives
    result = bracket(gen(BLOCK_BBAR, 3, -1), gen(BLOCK_BBAR, -3, -1))
    assert result == central(BLOCK_BBAR, 3)
    assert bracket(gen(BLOCK_BBAR, 1, 0), gen(BLOCK_BBAR, -1, -1)).terms == {BasisKey(0, -1): Fraction(-1)}


def test_mixed_variant_rejected():
    with pytest.raises(ValueError):
        bracket(gen(BLOCK_B, 1, 0), gen(VIRASORO, 1))


def test_quotient_projection():
    q = quotient(0, 1)
    result = bracket(gen(q, 1, 1), gen(q, 2, 1))
    assert result.is_zero()  # level 2 leaves the band
    kept = bracket(gen(q, 1, 0), gen(q, 2, 1))
    assert kept == gen(q, 3, 1, Fraction((0 + 1) * 2 - (1 + 1) * 1))


def test_quotient_key_validation():
    q = quotient(1, 2)
    with pytest.raises(ValueError):
        gen(q, 1, 0)
    with pytest.raises(ValueError):
        central(q)


def test_key_valid_reads_the_level_bounds_of_level_range():
    # the per-kind rule key_valid spelled out before it read level_range
    lowest = {"virasoro": 0, "block": 0, "blockbar": -1, "w1inf": 0, "winf": 1}
    variants = [VIRASORO, BLOCK_B, BLOCK_BBAR, W_1INF, W_INF]
    variants += [quotient(m, n) for n in range(5) for m in range(n + 1)]
    for variant in variants:
        for level in range(-5, 9):
            if variant.kind == "quotient":
                expected = variant.m <= level <= variant.n
            elif variant.kind == "virasoro":
                expected = level == 0
            else:
                expected = level >= lowest[variant.kind]
            assert algebra.key_valid(variant, BasisKey(3, level)) is expected, (variant, level)


def test_value_classes_share_one_frozen_base():
    from blocklie.modules import IntermediateSpec
    from blocklie.verma import WeightFunctional

    for cls in (AlgebraVariant, IntermediateSpec, WeightFunctional):
        assert cls.__mro__[1] is algebra.Frozen and "__eq__" not in vars(cls)

    class Twin(algebra.Frozen):
        __slots__ = ("values", "c")

    lam = WeightFunctional((Fraction(1),), Fraction(0))
    twin = Twin((Fraction(1),), Fraction(0))
    # equal fields in another class are not equal, though they hash alike
    assert lam != twin and twin != lam and hash(lam) == hash(twin)
    assert repr(twin) == "Twin(values=(Fraction(1, 1),), c=Fraction(0, 1))"
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        twin.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field 'c'"):
        del twin.c


def test_variant_and_key_window_values():
    assert AlgebraVariant("quotient", 0, 2) == quotient(0, 2) != quotient(0, 3)
    assert AlgebraVariant("block") == BLOCK_B == AlgebraVariant("block", 0, 0) != BLOCK_BBAR
    assert {VIRASORO: 1, quotient(1, 3): 2}[AlgebraVariant("quotient", 1, 3)] == 2
    assert repr(quotient(1, 3)) == "AlgebraVariant(kind='quotient', m=1, n=3)"
    assert str(quotient(1, 3)) == "Q:1:3"
    for name in ("kind", "m", "n"):
        with pytest.raises(AttributeError):
            setattr(BLOCK_B, name, 1)
        with pytest.raises(AttributeError):
            delattr(BLOCK_B, name)
    with pytest.raises(ValueError, match="unknown algebra kind 'blocks'"):
        AlgebraVariant("blocks")
    with pytest.raises(ValueError, match=r"quotient band requires 0 <= m <= n, got \[2, 1\]"):
        AlgebraVariant("quotient", 2, 1)
    with pytest.raises(ValueError, match="quotient band"):
        quotient(-1, 0)

    window = KeyWindow(1, 2, 0, 1)
    assert window == KeyWindow(degree_lo=1, degree_hi=2, level_lo=0, level_hi=1) != KeyWindow(1, 2, 0, 2)
    assert {window: 1}[KeyWindow(1, 2, 0, 1)] == 1
    assert repr(window) == "KeyWindow(degree_lo=1, degree_hi=2, level_lo=0, level_hi=1)"
    with pytest.raises(AttributeError):
        window.degree_lo = 0
    assert window.keys(quotient(1, 3)) == [BasisKey(1, 1), BasisKey(2, 1)]


def test_laurent_bracket_examples():
    a = LaurentOp.monomial(1, 1)
    b = LaurentOp.monomial(-1, 1)
    assert laurent_bracket(a, b).to_element() == gen(BLOCK_B, 0, 0, -2)
    c = LaurentOp.monomial(2, 1)
    d = LaurentOp.monomial(-2, 1)
    assert laurent_bracket(c, d).to_element() == gen(BLOCK_B, 0, 0, -4) + central(BLOCK_B)
    e = LaurentOp.monomial(0, 2)
    f = LaurentOp.monomial(0, 3)
    assert laurent_bracket(e, f).to_element().is_zero()


def test_laurent_matches_abstract_bracket():
    for a in range(-3, 4):
        for b in range(-3, 4):
            for i in range(3):
                for j in range(3):
                    realized = laurent_bracket(LaurentOp.monomial(a, i + 1), LaurentOp.monomial(b, j + 1))
                    abstract = bracket(gen(BLOCK_B, a, i), gen(BLOCK_B, b, j))
                    assert realized.to_element() == abstract


def test_laurent_rejects_constant_term():
    with pytest.raises(ValueError):
        LaurentOp(1, {0: Fraction(1)})


def test_axiom_sweeps_clean():
    assert verify_algebra_axioms(BLOCK_B, 4, 3) == []
    assert verify_algebra_axioms(VIRASORO, 8) == []
    assert verify_algebra_axioms(quotient(0, 2), 3, 2) == []
    assert verify_algebra_axioms(quotient(1, 3), 3, 3) == []
    assert verify_algebra_axioms(W_INF, 3, 3) == []


def test_axiom_sweep_detects_corruption(monkeypatch):
    def corrupted(variant, x, y):
        terms, c = bracket_terms(variant, x, y)
        if x == BasisKey(1, 0) and y == BasisKey(2, 0):
            c = c + 1  # break the cocycle
        return terms, c

    # the exact residuals are frozen so the reported witness cannot drift
    monkeypatch.setattr(algebra, "bracket_terms", corrupted)
    assert verify_algebra_axioms(BLOCK_B, 2, 1) == [
        {"check": "antisymmetry", "pair": [[1, 0], [2, 0]], "residual": "C"},
        {"check": "jacobi", "triple": [[0, 0], [1, 0], [2, 0]], "residual": "-2*C"},
    ]


def test_axiom_sweep_accepts_fraction_structure_constants(monkeypatch):
    def corrupted(variant, x, y):
        terms, c = bracket_terms(variant, x, y)
        if x == BasisKey(1, 1) and y == BasisKey(-1, 0):
            terms = dict(terms)
            terms[BasisKey(0, 1)] = terms.get(BasisKey(0, 1), 0) + Fraction(1, 3)
            c = c + Fraction(-1, 2)
        return terms, c

    monkeypatch.setattr(algebra, "bracket_terms", corrupted)
    violations = verify_algebra_axioms(quotient(0, 2), 1, 2)
    assert [(v["check"], v["residual"]) for v in violations] == [
        ("antisymmetry", "1/3*L_{0,1} - 1/2*C"),
        ("jacobi", "2/3*L_{-1,1}"),
        ("jacobi", "2/3*L_{-1,2}"),
        ("jacobi", "1/3*L_{0,1} - 1/2*C"),
        ("jacobi", "-2/3*L_{1,1}"),
        ("jacobi", "-2/3*L_{1,2}"),
    ]
    assert violations[0]["pair"] == [[-1, 0], [1, 1]]
    assert violations[3]["triple"] == [[-1, 0], [0, 0], [1, 1]]


@pytest.mark.parametrize("degree, level", [(-1, 3), (2, -1)])
def test_axiom_sweep_rejects_empty_window(degree, level):
    with pytest.raises(ValueError, match="empty axiom window"):
        verify_algebra_axioms(BLOCK_B, degree, level)


def _reference_bilinear(fn, variant, xterms: dict, yterms: dict, terms: dict | None = None):
    """``algebra._bilinear`` on dict operands, frozen from before the pair table."""
    if terms is None:
        terms = {}
    central_total = 0
    for kx, cx in xterms.items():
        for ky, cy in yterms.items():
            factor = cx * cy
            gen_terms, c = fn(variant, kx, ky)
            for key, coeff in gen_terms.items():
                s = terms.get(key, 0) + factor * coeff
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
            if c:
                central_total += factor * c
    return terms, central_total


def _reference_sweep(variant, degree_bound, level_cap=0, bracket_fn=None):
    """The axiom sweep frozen from before the pair table: every bracket is recomputed per pair and triple."""
    fn = bracket_fn or bracket_terms
    keys = window_keys(variant, degree_bound, level_cap)
    if not keys:
        raise ValueError(f"empty axiom window for {variant} at degree {degree_bound}, level {level_cap}")
    units = {k: {k: 1} for k in keys}
    violations: list[dict] = []

    def record(check: str, where: dict, terms: dict, central_total) -> None:
        violations.append({"check": check, **where, "residual": repr(_element(variant, terms, central_total))})

    for ix, kx in enumerate(keys):
        for ky in keys[ix:]:
            terms, c = _reference_bilinear(fn, variant, units[kx], units[ky])
            c += _reference_bilinear(fn, variant, units[ky], units[kx], terms)[1]
            if terms or c:
                record("antisymmetry", {"pair": [list(kx), list(ky)]}, terms, c)

    n = len(keys)
    for ix in range(n):
        x = keys[ix]
        for iy in range(ix, n):
            y = keys[iy]
            for iz in range(iy, n):
                z = keys[iz]
                terms = {}
                c = 0
                for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                    inner, _ = _reference_bilinear(fn, variant, units[q], units[r])
                    c += _reference_bilinear(fn, variant, units[p], inner, terms)[1]
                if terms or c:
                    record("jacobi", {"triple": [list(x), list(y), list(z)]}, terms, c)
    return violations


def _corrupted(kind: str, keys, rng: random.Random):
    """``bracket_terms`` corrupted on a seeded tenth of the ordered window pairs."""
    hit = {(x, y) for x in keys for y in keys if rng.random() < 0.1}

    def fn(variant, x, y):
        terms, c = bracket_terms(variant, x, y)
        if kind == "fraction":
            terms = {k: Fraction(v) for k, v in terms.items()}
            c = Fraction(c)
        if (x, y) not in hit:
            return terms, c
        terms = dict(terms)
        if kind == "central":
            c += 1
        elif kind == "asymmetric":
            key = BasisKey(x.alpha + y.alpha, x.level)  # depends on the order of x and y
            terms[key] = terms.get(key, 0) + 1
        elif kind == "fraction":
            key = BasisKey(x.alpha + y.alpha, y.level)
            terms[key] = terms.get(key, 0) + Fraction(1, 3)
            c += Fraction(-1, 2)
        elif kind == "zero":
            # a stored zero that the bilinear sum must drop, never a violation
            terms.setdefault(BasisKey(x.alpha + y.alpha, x.level + y.level + 1), 0)
        return terms, c

    return fn


@pytest.mark.parametrize("kind", ["central", "asymmetric", "fraction", "zero"])
@pytest.mark.parametrize(
    "name, degree, level",
    [("Vir", 6, 0), ("B", 3, 2), ("Bbar", 2, 2), ("W1inf", 2, 2), ("Winf", 2, 3), ("Q:0:2", 3, 2), ("Q:1:3", 2, 3)],
)
def test_axiom_sweep_matches_reference_under_corruption(monkeypatch, name, degree, level, kind):
    variant = parse_variant(name)
    rng = random.Random(f"sweep:{name}:{kind}")
    fn = _corrupted(kind, window_keys(variant, degree, level), rng)
    expected = _reference_sweep(variant, degree, level, bracket_fn=fn)
    monkeypatch.setattr(algebra, "bracket_terms", fn)
    assert verify_algebra_axioms(variant, degree, level) == expected
    if kind == "zero":
        assert expected == []
    else:
        assert {v["check"] for v in expected} == {"antisymmetry", "jacobi"}


def _image_keys(variant, keys) -> list:
    """The keys outside the window that brackets of two window keys produce."""
    return sorted({k for x in keys for y in keys for k in bracket_terms(variant, x, y)[0]} - set(keys))


_IMAGE_WINDOWS = [("Vir", 5, 0), ("B", 3, 2), ("Bbar", 2, 2), ("W1inf", 2, 2), ("Q:0:2", 3, 2)]


@pytest.mark.parametrize("name, degree, level", _IMAGE_WINDOWS)
def test_axiom_sweep_matches_reference_on_shifted_degrees(monkeypatch, name, degree, level):
    # a term at degree a+b+1 is no image of the true bracket, and its outer
    # brackets produce keys that first appear while the table's rows are built
    variant = parse_variant(name)
    keys = window_keys(variant, degree, level)
    rng = random.Random(f"shifted:{name}")
    hit = {(x, y) for x in keys for y in keys if rng.random() < 0.1}

    def fn(variant, x, y):
        terms, c = bracket_terms(variant, x, y)
        if (x, y) in hit:
            key = BasisKey(x.alpha + y.alpha + 1, x.level + y.level)
            terms = {**terms, key: terms.get(key, 0) + 1}
        return terms, c

    expected = _reference_sweep(variant, degree, level, bracket_fn=fn)
    monkeypatch.setattr(algebra, "bracket_terms", fn)
    assert verify_algebra_axioms(variant, degree, level) == expected
    assert {v["check"] for v in expected} == {"antisymmetry", "jacobi"}


@pytest.mark.parametrize("name, degree, level", _IMAGE_WINDOWS)
def test_axiom_sweep_matches_reference_on_image_central_terms(monkeypatch, name, degree, level):
    # only brackets [x, w] with w outside the window change, and only in C,
    # so antisymmetry cannot see it and Jacobi must read the table's image columns
    variant = parse_variant(name)
    keys = window_keys(variant, degree, level)
    rng = random.Random(f"image-central:{name}")
    hit = {(x, w) for x in keys for w in _image_keys(variant, keys) if rng.random() < 0.1}

    def fn(variant, x, y):
        terms, c = bracket_terms(variant, x, y)
        return terms, c + 1 if (x, y) in hit else c

    expected = _reference_sweep(variant, degree, level, bracket_fn=fn)
    monkeypatch.setattr(algebra, "bracket_terms", fn)
    assert verify_algebra_axioms(variant, degree, level) == expected
    assert {v["check"] for v in expected} == {"jacobi"}


@pytest.mark.parametrize("name, degree, level", _IMAGE_WINDOWS)
def test_axiom_sweep_brackets_each_pair_once(monkeypatch, name, degree, level):
    variant = parse_variant(name)
    seen = set()

    def counting(variant, x, y):
        assert (x, y) not in seen, f"[{x}, {y}] bracketed twice"
        seen.add((x, y))
        return bracket_terms(variant, x, y)

    monkeypatch.setattr(algebra, "bracket_terms", counting)
    assert verify_algebra_axioms(variant, degree, level) == _reference_sweep(variant, degree, level)
    keys = window_keys(variant, degree, level)
    # one row per window key, one column per window key and per image key
    assert seen == {(x, w) for x in keys for w in keys + _image_keys(variant, keys)}


@pytest.mark.parametrize("variant", [BLOCK_B, BLOCK_BBAR, W_1INF, W_INF, quotient(0, 3)])
def test_structure_constants_are_ints(variant):
    keys = window_keys(variant, 4, 3)
    for x in keys:
        for y in keys:
            terms, c = bracket_terms(variant, x, y)
            assert all(type(v) is int for v in terms.values())
            assert type(c) is int


def test_virasoro_central_term_stays_rational():
    terms, c = bracket_terms(VIRASORO, BasisKey(2, 0), BasisKey(-2, 0))
    assert terms == {BasisKey(0, 0): -4} and type(terms[BasisKey(0, 0)]) is int
    assert type(c) is Fraction and c == Fraction(1, 2)


def reference_bracket(x, y):
    """Bilinear bracket over Fractions only: every structure constant is lifted first."""
    terms = {}
    central_total = Fraction(0)
    for kx, cx in x.terms.items():
        for ky, cy in y.terms.items():
            gen_terms, c = bracket_terms(x.variant, kx, ky)
            for key, coeff in gen_terms.items():
                terms[key] = terms.get(key, Fraction(0)) + cx * cy * Fraction(coeff)
            central_total += cx * cy * Fraction(c)
    return AlgebraElement(x.variant, terms, central_total)


@pytest.mark.parametrize("variant", [VIRASORO, BLOCK_B, BLOCK_BBAR, W_1INF, W_INF, quotient(0, 3), quotient(1, 3)])
def test_bracket_matches_fraction_reference(variant):
    rng = random.Random(f"reference:{variant}")
    keys = window_keys(variant, 3, 3)

    def element():
        terms = {rng.choice(keys): Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))}
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if variant != quotient(1, 3) else 0
        return AlgebraElement(variant, terms, c)

    for _ in range(40):
        x, y = element(), element()
        result, expected = bracket(x, y), reference_bracket(x, y)
        assert result.to_json() == expected.to_json()
        assert result == expected
        assert all(type(v) is Fraction for v in result.terms.values())
        assert type(result.central) is Fraction


def test_gradation_property():
    rng = random.Random(31)
    keys = window_keys(BLOCK_B, 4, 2)
    for _ in range(80):
        x = rng.choice(keys)
        y = rng.choice(keys)
        terms, _ = bracket_terms(BLOCK_B, x, y)
        for key in terms:
            assert key.alpha == x.alpha + y.alpha


def test_centrality():
    for key in window_keys(BLOCK_B, 3, 2):
        assert bracket(central(BLOCK_B), gen(BLOCK_B, key.alpha, key.level)).is_zero()


def test_vir_consistency_sweep():
    report = vir_consistency(10)
    assert report["homomorphism"] is True
    assert report["c0"] == "1/2"
    assert report["quotient_matches"] is True
    # the rescaling does not depend on the sweep size
    assert vir_consistency(2)["c0"] == "1/2"


def test_associated_graded():
    assert associated_graded_check(3, 2) == []
    # spot values behind the sweep
    top = bracket(gen(W_INF, 1, 2), gen(W_INF, 2, 2))
    assert top.terms.get(BasisKey(3, 3)) == Fraction(2)
    low = bracket(gen(W_INF, 1, 1), gen(W_INF, -1, 1))
    assert low.terms.get(BasisKey(0, 1)) == Fraction(-2)


def test_generation_closure_positive_window():
    window = KeyWindow(1, 4, 0, 2)
    reached = generation_closure([BasisKey(1, 0), BasisKey(1, 1)], BLOCK_B, window)
    assert BasisKey(2, 1) in reached
    assert BasisKey(2, 0) not in reached


def test_generation_closure_full_positive_part():
    window = KeyWindow(1, 5, 0, 2)
    seeds = [BasisKey(1, i) for i in range(3)] + [BasisKey(2, 0)]
    reached = generation_closure(seeds, BLOCK_B, window)
    assert reached == set(window.keys(BLOCK_B))


def test_generation_closure_level_ideal():
    # the ideal generated by the degree-1 level-2 generator is the level >= 2 part
    window = KeyWindow(-3, 3, 0, 3)
    reached = generation_closure([BasisKey(1, 2)], BLOCK_B, window)
    assert reached == {BasisKey(a, i) for a in range(-3, 4) for i in (2, 3)}


def test_quotient_soundness():
    # bracketing in B then discarding high levels equals bracketing in the quotient
    rng = random.Random(32)
    for m, n in ((0, 1), (0, 3), (1, 2)):
        q = quotient(m, n)
        for _ in range(60):
            x = BasisKey(rng.randint(-4, 4), rng.randint(m, n))
            y = BasisKey(rng.randint(-4, 4), rng.randint(m, n))
            full_terms, full_central = bracket_terms(BLOCK_B, x, y)
            q_terms, q_central = bracket_terms(q, x, y)
            projected = {k: v for k, v in full_terms.items() if k.level <= n}
            assert q_terms == projected
            assert q_central == full_central  # central arises only at level sum zero


def test_element_json_roundtrip():
    elem = gen(BLOCK_B, 2, 1, Fraction(-3, 4)) + central(BLOCK_B, Fraction(1, 6))
    assert AlgebraElement.from_json(elem.to_json()) == elem
    assert parse_variant(str(quotient(1, 2))) == quotient(1, 2)


@pytest.mark.parametrize("text", ["Q:0:1_0", "Q:+0:1", "Q:0: 1", "Q:00:1", "Q:0:1.0"])
def test_quotient_levels_are_canonical_integers(text):
    # int() would read each of these as a nearby quotient
    with pytest.raises(ValueError, match="malformed quotient variant"):
        parse_variant(text)


def test_element_repr():
    assert repr(bracket(gen(BLOCK_B, 2, 0), gen(BLOCK_B, -2, 0))) == "-4*L_{0,0} + C"
    assert repr(gen(VIRASORO, 3)) == "L_{3}"
    assert repr(gen(W_1INF, 2, 1)) == "x^2*D^1"


def _reference_vir_consistency(degree_bound):
    """``vir_consistency`` frozen from before it compared ``bracket_terms`` results: element brackets."""
    if degree_bound < 2:
        raise ValueError("need degree_bound >= 2 to see a central term")
    c0 = None
    ok = True
    pairs = 0
    q00 = quotient(0, 0)
    quotient_ok = True
    for a in range(-degree_bound, degree_bound + 1):
        for b in range(-degree_bound, degree_bound + 1):
            pairs += 1
            lhs = bracket(gen(BLOCK_B, a, 0), gen(BLOCK_B, b, 0))
            rhs = bracket(gen(VIRASORO, a), gen(VIRASORO, b))
            lhs_terms = {k.alpha: v for k, v in lhs.terms.items()}
            rhs_terms = {k.alpha: v for k, v in rhs.terms.items()}
            if lhs_terms != rhs_terms:
                ok = False
            if lhs.central == 0:
                if rhs.central != 0:
                    ok = False
            else:
                ratio = rhs.central / lhs.central
                if c0 is None:
                    c0 = ratio
                elif ratio != c0:
                    ok = False
            qlhs = bracket(gen(q00, a, 0), gen(q00, b, 0))
            if {k.alpha: v for k, v in qlhs.terms.items()} != rhs_terms:
                quotient_ok = False
            if (c0 is not None and qlhs.central * c0 != rhs.central) or (c0 is None and qlhs.central != 0 != rhs.central):
                quotient_ok = False
    return {
        "homomorphism": ok and c0 is not None,
        "c0": format_rational(c0) if c0 is not None else None,
        "pairs": pairs,
        "quotient_matches": quotient_ok,
    }


def _reference_generation_closure(seeds, variant, window):
    """``generation_closure`` frozen from before it bracketed key dicts: one element bracket per pair."""
    keys = window.keys(variant)
    index = {k: i for i, k in enumerate(keys)}
    ncols = len(keys) + 1  # final coordinate holds the C component
    basis_elements = [gen(variant, k.alpha, k.level) for k in keys]

    def to_vec(elem):
        vec = {}
        for key, coeff in elem.terms.items():
            col = index.get(key)
            if col is not None:
                vec[col] = coeff
        if elem.central:
            vec[ncols - 1] = elem.central
        return vec

    def elem_of_vec(vec):
        terms = {keys[c]: v for c, v in vec.items() if c < ncols - 1}
        central_part = vec.get(ncols - 1, ZERO)
        if variant.kind == "quotient" and variant.m:  # central_allowed(variant), inlined
            central_part = ZERO
        return AlgebraElement(variant, terms, central_part)

    span = Echelon()
    frontier = []
    for seed in seeds:
        vec = to_vec(gen(variant, seed.alpha, seed.level))
        if span.insert(vec):
            frontier.append(vec)
    while frontier:
        new_frontier = []
        for vec in frontier:
            elem = elem_of_vec(vec)
            for basis_elem in basis_elements:
                produced = bracket(basis_elem, elem)
                if produced.is_zero():
                    continue
                pvec = to_vec(produced)
                if span.insert(pvec):
                    new_frontier.append(pvec)
        frontier = new_frontier
    return {key for key, col in index.items() if not span.reduce({col: 1})}


def corrupted_vir_constants(rng: random.Random, degree_bound: int):
    """``bracket_terms`` with level-0 coefficients or central terms bumped on seeded degree pairs."""
    degrees = range(-degree_bound, degree_bound + 1)
    hits = {(kind, a, b): rng.choice(("term", "central", "half")) for kind in ("block", "virasoro", "quotient")
            for a in degrees for b in degrees if rng.random() < 0.05}
    real = algebra.bracket_terms

    def fn(variant, x, y):
        terms, c = real(variant, x, y)
        how = hits.get((variant.kind, x.alpha, y.alpha))
        if how == "term":
            key = BasisKey(x.alpha + y.alpha, 0)
            terms = {**terms, key: terms.get(key, 0) + 1}
        elif how == "central":
            c += 1
        elif how == "half":
            c *= Fraction(1, 2)
        return terms, c

    return fn


def test_vir_consistency_matches_reference(monkeypatch):
    for degree_bound in range(0, 10):
        if degree_bound < 2:
            with pytest.raises(ValueError, match="degree_bound >= 2"):
                vir_consistency(degree_bound)
            continue
        assert vir_consistency(degree_bound) == _reference_vir_consistency(degree_bound)
    rng = random.Random(8)
    for trial in range(40):
        degree_bound = rng.randint(2, 5)
        monkeypatch.setattr(algebra, "bracket_terms", corrupted_vir_constants(rng, degree_bound))
        assert vir_consistency(degree_bound) == _reference_vir_consistency(degree_bound)
        monkeypatch.undo()


ALL_VARIANTS = [VIRASORO, BLOCK_B, BLOCK_BBAR, W_1INF, W_INF, quotient(0, 0), quotient(0, 2), quotient(1, 3)]


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_generation_closure_matches_reference():
    rng = random.Random(81)
    for variant in ALL_VARIANTS:
        for _ in range(8):
            lo, hi = sorted(rng.randint(-3, 3) for _ in range(2))
            level_lo = rng.randint(-1, 2)
            window = KeyWindow(lo, hi, level_lo, level_lo + rng.randint(0, 2))
            # mostly window keys; now and then any key near it, which may be invalid or outside it
            keys = window.keys(variant)
            seeds = [
                rng.choice(keys) if keys and rng.random() < 0.9 else BasisKey(rng.randint(-3, 3), rng.randint(-1, 3))
                for _ in range(rng.randint(1, 3))
            ]
            got = outcome(generation_closure, seeds, variant, window)
            assert got == outcome(_reference_generation_closure, seeds, variant, window)


def test_generation_closure_rejects_an_invalid_seed():
    window = KeyWindow(-2, 2, 0, 2)
    with pytest.raises(ValueError, match="not valid"):
        generation_closure([BasisKey(1, 2)], quotient(0, 1), window)
