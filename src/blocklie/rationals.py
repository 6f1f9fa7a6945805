"""Exact rational scalars and their wire format.

Every scalar stored in an element or matrix is a
``fractions.Fraction``.  The integral structure constants of the
algebras and the integral coefficients of polynomials are plain ints;
a polynomial keeps a ``Fraction`` only for a non-integral coefficient.
The wire format is the compact string ``"p/q"``, shortened to ``"p"``
when the denominator is one, for an int and a Fraction alike.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def format_rational(x: Fraction | int) -> str:
    """Render a Fraction or an int as "p" or "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str | int) -> Fraction:
    """Parse "p" or "p/q" (JSON integers are accepted too)."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string or integer, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc
