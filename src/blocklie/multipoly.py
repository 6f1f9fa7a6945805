"""Sparse multivariate polynomials over exact rationals.

A polynomial carries a fixed ordered symbol alphabet and a dict mapping
exponent tuples (one slot per symbol) to coefficients.  An integral
coefficient is stored as a Python ``int``; only a non-integral one is a
``Fraction``.  Zero coefficients are never stored; the zero polynomial
has an empty dict.

Example over the alphabet ("x", "y"):

    x^2*y + 3/2  ->  {(2, 1): 1, (0, 0): Fraction(3, 2)}

Operations on two polynomials require identical alphabets; mixing
alphabets raises ValueError rather than guessing an embedding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Mapping, Sequence

from .rationals import ZERO, format_rational


def _normal(value) -> int | Fraction:
    """An exact scalar as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _drop_zeros(acc: dict) -> dict:
    """The nonzero entries of a sum, with integral Fractions back as ints."""
    return {
        e: c if type(c) is int or c.denominator != 1 else c.numerator
        for e, c in acc.items()
        if c
    }


class MultiPoly:
    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Sequence[str], terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        self.alphabet = tuple(alphabet)
        self.terms: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            width = len(self.alphabet)
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise ValueError(f"exponent tuple {exps} does not match alphabet of size {width}")
                coeff = _normal(coeff)
                if coeff != 0:
                    self.terms[tuple(exps)] = coeff

    @classmethod
    def _make(cls, alphabet: tuple[str, ...], terms: dict) -> "MultiPoly":
        """Wrap terms that are already normal: tuple keys, nonzero ints or non-integral Fractions."""
        poly = object.__new__(cls)
        poly.alphabet = alphabet
        poly.terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Sequence[str]) -> "MultiPoly":
        return cls(alphabet)

    @classmethod
    def const(cls, alphabet: Sequence[str], value: Fraction | int) -> "MultiPoly":
        alphabet = tuple(alphabet)
        value = _normal(value)
        return cls._make(alphabet, {(0,) * len(alphabet): value} if value else {})

    @classmethod
    def symbol(cls, alphabet: Sequence[str], name: str) -> "MultiPoly":
        alphabet = tuple(alphabet)
        idx = alphabet.index(name)
        exps = [0] * len(alphabet)
        exps[idx] = 1
        return cls._make(alphabet, {tuple(exps): 1})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError(f"alphabet mismatch: {self.alphabet} vs {other.alphabet}")

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        return MultiPoly.const(self.alphabet, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return MultiPoly._make(self.alphabet, _drop_zeros(terms))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.alphabet, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        acc: dict[tuple[int, ...], int | Fraction] = {}
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exps = tuple(map(add, e1, e2))
                acc[exps] = acc.get(exps, 0) + c1 * c2
        return MultiPoly._make(self.alphabet, _drop_zeros(acc))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.const(self.alphabet, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, factor: Fraction | int) -> "MultiPoly":
        factor = _normal(factor)
        if not factor:
            return MultiPoly._make(self.alphabet, {})
        return MultiPoly._make(self.alphabet, _drop_zeros({e: c * factor for e, c in self.terms.items()}))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.alphabet, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals its scalar (see __eq__), so it hashes like it
        zero = (0,) * len(self.alphabet)
        return hash(self.terms.get(zero, 0)) if set(self.terms) <= {zero} else hash(frozenset(self.terms.items()))

    def degree_in(self, name: str) -> int:
        """Highest power of one symbol; -1 for the zero polynomial."""
        idx = self.alphabet.index(name)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def coeff_of(self, name: str, degree: int) -> "MultiPoly":
        """The polynomial in the remaining symbols multiplying name**degree.

        The result keeps the full alphabet with the extracted symbol's
        exponent zeroed, so sum_d coeff_of(s, d) * s**d reconstructs self.
        """
        idx = self.alphabet.index(name)
        terms = {}
        for exps, c in self.terms.items():
            if exps[idx] == degree:
                terms[exps[:idx] + (0,) + exps[idx + 1:]] = c
        return MultiPoly._make(self.alphabet, terms)

    def derivative(self, name: str) -> "MultiPoly":
        idx = self.alphabet.index(name)
        terms = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e:
                terms[exps[:idx] + (e - 1,) + exps[idx + 1:]] = c * e
        return MultiPoly._make(self.alphabet, _drop_zeros(terms))

    def content_split(self) -> tuple["MultiPoly", "MultiPoly"]:
        """(content, primitive part) with self == content * primitive, for nonzero self.

        The content is the monomial of the smallest exponents times the
        rational gcd of the coefficients; the primitive part then has
        coprime integer coefficients and a positive leading term.
        """
        low = tuple(map(min, zip(*self.terms)))
        coeffs = [Fraction(c) for c in self.terms.values()]
        scalar = Fraction(gcd(*(c.numerator for c in coeffs)), lcm(*(c.denominator for c in coeffs)))
        if self.terms[max(self.terms)] < 0:
            scalar = -scalar
        primitive = {tuple(map(sub, e, low)): c / scalar for e, c in zip(self.terms, coeffs)}
        return MultiPoly(self.alphabet, {low: scalar}), MultiPoly(self.alphabet, primitive)

    def substitute(self, name: str, value: "MultiPoly | Fraction | int") -> "MultiPoly":
        """Replace one symbol by a polynomial (or constant) over the same alphabet."""
        if not isinstance(value, MultiPoly):
            value = MultiPoly.const(self.alphabet, value)
        else:
            self._check(value)
        idx = self.alphabet.index(name)
        acc: dict[tuple[int, ...], int | Fraction] = {}
        powers: dict[int, list] = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e not in powers:
                powers[e] = list((value ** e).terms.items())
            rest = exps[:idx] + (0,) + exps[idx + 1:]
            for pe, pc in powers[e]:
                key = tuple(map(add, rest, pe))
                acc[key] = acc.get(key, 0) + c * pc
        return MultiPoly._make(self.alphabet, _drop_zeros(acc))

    def evaluate(self, assignment: Mapping[str, Fraction | int]) -> Fraction:
        """Full evaluation; every symbol occurring in a term must be assigned.

        The sum runs on integer numerators: each value p/q of a symbol of
        maximum degree D enters a term of exponent e as p^e * q^(D-e), so
        every term shares the denominator prod q^D, and terms are summed
        per coefficient denominator before one Fraction is built for each.
        """
        values = {name: Fraction(assignment[name]) for name in self.alphabet if name in assignment}
        tables = []
        scale = 1
        for idx, top in enumerate(map(max, zip(*self.terms))):
            if not top:
                continue
            name = self.alphabet[idx]
            if name not in values:
                raise ValueError("evaluation is missing a symbol assignment")
            p, q = values[name].numerator, values[name].denominator
            tables.append((idx, [p ** e * q ** (top - e) for e in range(top + 1)]))
            scale *= q ** top
        sums: dict[int, int] = {}
        for exps, c in self.terms.items():
            term = 1
            for idx, table in tables:
                term *= table[exps[idx]]
            if type(c) is int:
                sums[1] = sums.get(1, 0) + c * term
            else:
                sums[c.denominator] = sums.get(c.denominator, 0) + c.numerator * term
        total = ZERO
        for den, num in sums.items():
            total += Fraction(num, den * scale)
        return total

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.alphabet, exps)
                if e
            ]
            if not factors:
                parts.append(format_rational(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(format_rational(c) + "*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "terms": {",".join(map(str, e)): format_rational(c) for e, c in sorted(self.terms.items())},
        }
