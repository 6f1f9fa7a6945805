"""Property tests: the brackets that read ``bracket_terms`` against frozen references."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_algebra import (  # noqa: E402
    ALL_VARIANTS,
    _reference_generation_closure,
    outcome,
)
from test_identities import _reference_sym_bracket  # noqa: E402
from test_verma import _reference_normal_order  # noqa: E402

from blocklie import identities as ident  # noqa: E402
from blocklie.algebra import BLOCK_B, AlgebraElement, BasisKey, KeyWindow, bracket, generation_closure  # noqa: E402
from blocklie.rationals import accumulate  # noqa: E402
from blocklie.verma import normal_order  # noqa: E402


@st.composite
def _words(draw):
    n = draw(st.integers(0, 3))
    factor = st.tuples(st.integers(1, 3), st.integers(0, n))
    return draw(st.lists(factor, max_size=5)), n


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_words())
def test_normal_order_matches_reference(data):
    word, n = data
    got = normal_order(word, n)
    assert list(got.items()) == list(_reference_normal_order(word, n).items())


_keys = st.builds(BasisKey, st.integers(-3, 3), st.integers(-1, 3))


@st.composite
def _closures(draw):
    """A variant, a window of it and seeds, mostly keys of the window."""
    variant = draw(st.sampled_from(ALL_VARIANTS))
    lo = draw(st.integers(-3, 3))
    level_lo = draw(st.integers(-1, 2))
    window = KeyWindow(lo, lo + draw(st.integers(0, 4)), level_lo, level_lo + draw(st.integers(0, 2)))
    keys = window.keys(variant)
    seed = st.one_of(st.sampled_from(keys), _keys) if keys else _keys
    return draw(st.lists(seed, min_size=1, max_size=3)), variant, window


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_closures())
def test_generation_closure_matches_reference(data):
    seeds, variant, window = data
    assert outcome(generation_closure, seeds, variant, window) == outcome(_reference_generation_closure, seeds, variant, window)


def _sym_keys(level_lo: int):
    """Keys with polynomial degree and level; the level is c*i + l with l >= level_lo.

    Degrees are nonnegative in alpha and beta and never free of both, so no
    two of them sum to the zero polynomial.
    """
    degrees = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)).filter(lambda d: d[0] or d[1])
    levels = st.tuples(st.integers(0, 1), st.integers(level_lo, 2))
    return st.builds(
        lambda d, l: BasisKey(
            ident.ALPHA.scale(d[0]) + ident.BETA.scale(d[1]) + d[2], ident.I_SYM.scale(l[0]) + l[1]
        ),
        degrees,
        levels,
    )


_sym_coeffs = st.builds(
    lambda c, s, k: ident._const(c) + ident.KT.scale(s) + ident.I_SYM.scale(k),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.integers(-1, 1),
).filter(bool)
_sym_elements = st.dictionaries(_sym_keys(-1), _sym_coeffs, max_size=3)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_sym_elements, _sym_elements, _sym_elements)
def test_sym_bracket_matches_reference(x, y, z):
    inner = ident.sym_bracket(y, z)
    assert list(inner.items()) == list(_reference_sym_bracket(y, z).items())
    assert list(ident.sym_bracket(x, inner).items()) == list(_reference_sym_bracket(x, inner).items())


def _at(element, point) -> dict:
    """A symbolic element evaluated at an integer point: degrees, levels and coefficients."""
    return accumulate(
        {},
        (
            (BasisKey(int(degree.evaluate(point)), int(level.evaluate(point))), coeff.evaluate(point))
            for (degree, level), coeff in element.items()
        ),
    )


# level constants l >= 0 and points i >= 0, so every evaluated key is a generator of B
_b_elements = st.dictionaries(_sym_keys(0), _sym_coeffs, max_size=3)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_b_elements, _b_elements, st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3), st.integers(-3, 3))
def test_sym_bracket_evaluates_to_the_bracket_of_b(x, y, alpha, beta, i, kt):
    point = {"alpha": alpha, "beta": beta, "i": i, "kt": kt}
    numeric = bracket(AlgebraElement(BLOCK_B, _at(x, point)), AlgebraElement(BLOCK_B, _at(y, point)))
    # the central term of a pair whose degrees sum to zero only at this point has no symbolic slot
    assert numeric.terms == _at(ident.sym_bracket(x, y), point)
