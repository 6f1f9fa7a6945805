"""Sparse multivariate polynomial ring over exact rationals, against a frozen Fraction reference."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklie.linalg import RationalMatrix, eval_poly_matrix
from blocklie.multipoly import MultiPoly

AB = ("i", "kt")
AB3 = ("x", "y", "z")


def sym(name):
    return MultiPoly.symbol(AB, name)


def test_coefficient_extraction_binomial():
    p = (sym("i") + 1) ** 2
    assert p.coeff_of("i", 2) == MultiPoly.const(AB, 1)
    assert p.coeff_of("i", 1) == MultiPoly.const(AB, 2)


def test_derivative_cube():
    p = sym("kt") ** 3
    assert p.derivative("kt") == 3 * sym("kt") ** 2


def test_evaluate_affine():
    p = 1 + 2 * sym("kt")
    assert p.evaluate({"kt": Fraction(3, 2)}) == 4


def test_alphabet_mismatch_rejected():
    with pytest.raises(ValueError):
        sym("i") + MultiPoly.symbol(("x",), "x")


def _random_poly(rng, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = (rng.randint(0, 3), rng.randint(0, 3))
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MultiPoly(AB, terms)


def test_ring_axioms_random():
    rng = random.Random(21)
    for _ in range(60):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_coefficient_reconstruction():
    rng = random.Random(22)
    for _ in range(30):
        p = _random_poly(rng)
        for name in AB:
            total = MultiPoly.zero(AB)
            for d in range(p.degree_in(name) + 1):
                total = total + p.coeff_of(name, d) * sym(name) ** d
            assert total == p


def test_substitute_matches_evaluate():
    rng = random.Random(23)
    for _ in range(30):
        p = _random_poly(rng)
        value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        collapsed = p.substitute("i", value)
        point = {"i": Fraction(7), "kt": Fraction(2, 5)}
        assert collapsed.evaluate(point) == p.evaluate({"i": value, "kt": point["kt"]})


def test_substitute_polynomial():
    p = sym("i") ** 2 + sym("kt")
    q = p.substitute("i", sym("kt") + 1)
    assert q == sym("kt") ** 2 + 3 * sym("kt") + 1


def test_repr_deterministic():
    p = 2 * sym("i") - sym("kt") ** 2
    assert repr(p) == repr(2 * sym("i") - sym("kt") ** 2)


# ---------------------------------------------------------------------------
# frozen Fraction reference: the original all-Fraction MultiPoly arithmetic
# and eval_poly_matrix, kept verbatim apart from the class name
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


class _ReferencePoly:
    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=None):
        self.alphabet = tuple(alphabet)
        self.terms = {}
        if terms:
            width = len(self.alphabet)
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise ValueError(f"exponent tuple {exps} does not match alphabet of size {width}")
                coeff = Fraction(coeff)
                if coeff != 0:
                    self.terms[tuple(exps)] = coeff

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet)

    @classmethod
    def const(cls, alphabet, value):
        value = Fraction(value)
        if value == 0:
            return cls(alphabet)
        return cls(alphabet, {(0,) * len(alphabet): value})

    def _check(self, other):
        if self.alphabet != other.alphabet:
            raise ValueError(f"alphabet mismatch: {self.alphabet} vs {other.alphabet}")

    def _coerce(self, other):
        if isinstance(other, _ReferencePoly):
            self._check(other)
            return other
        return _ReferencePoly.const(self.alphabet, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, _ZERO) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return _ReferencePoly(self.alphabet, terms)

    def __mul__(self, other):
        other = self._coerce(other)
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(exps, _ZERO) + c1 * c2
                if s:
                    acc[exps] = s
                else:
                    acc.pop(exps, None)
        return _ReferencePoly(self.alphabet, acc)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = _ReferencePoly.const(self.alphabet, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute(self, name, value):
        if not isinstance(value, _ReferencePoly):
            value = _ReferencePoly.const(self.alphabet, value)
        else:
            self._check(value)
        idx = self.alphabet.index(name)
        out = _ReferencePoly.zero(self.alphabet)
        powers = {0: _ReferencePoly.const(self.alphabet, 1)}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e not in powers:
                powers[e] = value ** e
            rest = list(exps)
            rest[idx] = 0
            out = out + powers[e] * _ReferencePoly(self.alphabet, {tuple(rest): c})
        return out

    def evaluate(self, assignment):
        values = []
        for name in self.alphabet:
            values.append(Fraction(assignment[name]) if name in assignment else None)
        total = _ZERO
        for exps, c in self.terms.items():
            term = c
            for e, v in zip(exps, values):
                if e:
                    if v is None:
                        raise ValueError("evaluation is missing a symbol assignment")
                    term *= v ** e
            total += term
        return total


def _reference_eval_poly_matrix(coeffs, m):
    if m.rows != m.cols:
        raise ValueError("polynomial evaluation needs a square matrix")
    acc = RationalMatrix.zero(m.rows, m.cols)
    for c in reversed(list(coeffs)):
        acc = acc @ m
        if c:
            acc = acc + RationalMatrix.identity(m.rows).scale(c)
    return acc


def _ref(p):
    return _ReferencePoly(p.alphabet, p.terms)


def _assert_normal(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0


# mostly integral coefficients, as in the identity suite, with some p/q mixed in
_coeffs = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
_exps = st.tuples(*(st.integers(0, 3) for _ in AB3))
_polys = st.dictionaries(_exps, _coeffs, max_size=6).map(lambda t: MultiPoly(AB3, t))
_values = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_polys, _polys, _polys, st.sampled_from(AB3), st.fixed_dictionaries({n: _values for n in AB3}))
def test_ring_operations_match_fraction_reference(p, q, r, name, point):
    for got, want in (
        (p + q, _ref(p) + _ref(q)),
        (p * q, _ref(p) * _ref(q)),
        (p - q * r, _ref(p) + _ref(q) * _ref(r) * -1),
        (p.substitute(name, q), _ref(p).substitute(name, _ref(q))),
        (p.substitute(name, point[name]), _ref(p).substitute(name, point[name])),
        (p.scale(point[name]), _ref(p) * point[name]),
    ):
        assert got.terms == want.terms
        _assert_normal(got)
    for poly in (p, q, p * q + r):
        value = poly.evaluate(point)
        assert type(value) is Fraction
        assert value == _ref(poly).evaluate(point)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_polys, st.sampled_from(AB3))
def test_evaluate_missing_symbol_raises(p, name):
    point = {n: Fraction(1, 2) for n in AB3 if n != name}
    if p.degree_in(name) > 0:
        with pytest.raises(ValueError):
            p.evaluate(point)
        with pytest.raises(ValueError):
            _ref(p).evaluate(point)
    else:
        assert p.evaluate(point) == _ref(p).evaluate(point)


def test_integral_coefficients_stored_as_ints():
    p = MultiPoly(AB, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): 0})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)}
    assert type(p.terms[(1, 0)]) is int
    doubled = p.scale(2)
    assert doubled.terms == {(1, 0): 4, (0, 1): 1}
    _assert_normal(doubled)
    _assert_normal(p + MultiPoly(AB, {(0, 1): Fraction(1, 2)}))
    assert repr(doubled) == "4*i + kt"
    assert doubled.to_json() == MultiPoly(AB, {(1, 0): Fraction(4), (0, 1): Fraction(1)}).to_json()
    assert type(MultiPoly.const(AB, 3).evaluate({})) is Fraction
    assert type(MultiPoly.zero(AB).evaluate({})) is Fraction


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(_coeffs, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(_coeffs, max_size=5),
        )
    )
)
def test_eval_poly_matrix_matches_fraction_reference(data):
    rows, coeffs = data
    m = RationalMatrix.from_rows(rows)
    got = eval_poly_matrix(coeffs, m)
    assert got == _reference_eval_poly_matrix(coeffs, m)
    assert all(type(v) is Fraction and v != 0 for v in got.entries.values())


def test_content_split_rational_coefficients():
    x, kt = sym("i"), sym("kt")
    poly = (x ** 2).scale(Fraction(-3, 4)) * (kt.scale(2) + Fraction(2, 3))
    content, primitive = poly.content_split()
    assert content == (x ** 2).scale(Fraction(-1, 2))
    assert primitive == kt.scale(3) + 1
    assert content * primitive == poly
