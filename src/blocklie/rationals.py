"""Exact rational scalars and their wire format.

Every scalar stored in an element or matrix is a
``fractions.Fraction``.  The integral structure constants of the
algebras, the Verma straightening coefficients (``normal_order``, and
``VermaAction`` images scaled by one common denominator) and the
integral coefficients of polynomials are plain ints; a polynomial
keeps a ``Fraction`` only for a non-integral coefficient.
The wire format is the compact string ``"p/q"``, shortened to ``"p"``
when the denominator is one, for an int and a Fraction alike.  An
integer field of a JSON document is read with ``read_int``, an
integer object key with ``read_int_key`` and an array with
``read_list``.  ``check_keys`` refuses an unknown key in any object of
a module, matrix, element, operand or weight-functional document.

Sparse vectors are dicts from keys to nonzero coefficients, and every
sum into one goes through ``accumulate``, which adds scaled values and
drops the entries that cancel.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

ZERO = Fraction(0)
ONE = Fraction(1)

# Python's limit for converting an int to and from decimal text, so the
# largest numerator or denominator ``format_rational`` can write
DIGIT_CAP = 4300
_DIGIT_BOUND = 10**DIGIT_CAP
# the exponent of a decimal such as "1e3", which Fraction turns into 10**exponent
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\Z", re.IGNORECASE)


def format_rational(x: Fraction | int) -> str:
    """Render a Fraction or an int as "p" or "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str | int) -> Fraction:
    """Parse "p" or "p/q"; JSON integers are accepted too, JSON booleans are not.

    Any other exact string ``fractions.Fraction`` reads is accepted as
    well: decimals ("0.5"), exponents ("1e3") and digit underscores
    ("1_000").  An exponent above ``DIGIT_CAP`` in magnitude is refused
    before any value is built, since Fraction would build 10**exponent
    first, and so is a value whose numerator or denominator has more
    than ``DIGIT_CAP`` decimal digits, which ``format_rational`` could
    not write.
    """
    if isinstance(text, bool):
        raise ValueError(f"rational must be a string or integer, got {text!r}")
    if isinstance(text, int):
        value = Fraction(text)
    elif not isinstance(text, str):
        raise ValueError(f"rational must be a string or integer, got {text!r}")
    else:
        exponent = _EXPONENT.search(text.strip())
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(DIGIT_CAP)) or int(digits or 0) > DIGIT_CAP:
            raise ValueError(f"rational {text!r} has an exponent above {DIGIT_CAP} in magnitude")
        try:
            value = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational {text!r}") from exc
    if max(abs(value.numerator), value.denominator) >= _DIGIT_BOUND:
        raise ValueError(f"rational {text!r} has more than {DIGIT_CAP} digits in its numerator or denominator")
    return value


def read_int(value: object, what: str) -> int:
    """Return ``value`` if it is a JSON integer; a bool, float or string raises ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def read_list(value: object, what: str) -> list:
    """Return ``value`` if it is a JSON array; an object, string or scalar raises ValueError."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def read_int_key(key: object, what: str) -> int:
    """Read a JSON object key that spells an integer in canonical decimal: "-3", not "+3", "03" or " 3"."""
    if isinstance(key, str) and key.removeprefix("-").isdecimal() and str(int(key)) == key:
        return int(key)
    raise ValueError(f"{what} {key!r} is not an integer in canonical decimal")


def check_keys(data: dict, known) -> None:
    """Raise ValueError naming every key of the JSON object ``data`` outside ``known``."""
    unknown = data.keys() - set(known)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")


def accumulate(target: dict, pairs: Iterable[tuple], scale=1) -> dict:
    """Add ``scale * value`` into ``target[key]`` for each (key, value) pair.

    An entry whose sum is zero is dropped, so ``target`` stays a sparse
    vector of nonzero coefficients.  A value for an absent key is stored
    as it is, so ints stay ints and Fractions stay Fractions, and a zero
    value for an absent key is skipped.  Any ring element with
    ``__bool__`` works as a value.  ``scale == 1`` multiplies nothing.
    Returns ``target``.
    """
    scaled = scale != 1
    for key, value in pairs:
        if scaled:
            value = scale * value
        old = target.get(key)
        if old is not None:
            value = old + value
        if value:
            target[key] = value
        else:
            target.pop(key, None)
    return target
