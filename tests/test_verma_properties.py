"""Property tests: ``verma_basis`` against brute force, ``VermaAction.act_generator`` against the straightening it replaced."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blocklie.algebra import BasisKey, bracket_terms, quotient  # noqa: E402
from blocklie.rationals import accumulate  # noqa: E402
from blocklie.verma import VermaAction, WeightFunctional, normal_order, verma_basis  # noqa: E402


def _ordered_words(n, depth):
    """Every sequence of factors (alpha, level) with alphas summing to depth, in any order."""
    if depth == 0:
        yield ()
        return
    for alpha in range(1, depth + 1):
        for level in range(n + 1):
            for rest in _ordered_words(n, depth - alpha):
                yield ((alpha, level),) + rest


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 7))
def test_verma_basis_is_every_canonical_monomial_in_order(n, depth):
    basis = verma_basis(n, depth)
    assert basis == sorted({tuple(sorted(w, reverse=True)) for w in _ordered_words(n, depth)})
    # within one call each factor is one object
    factors = {}
    for word in basis:
        for factor in word:
            assert factors.setdefault(factor, factor) is factor


class _StraightenEveryProduct(VermaAction):
    """``act_generator`` as it was before its cache kept one copy of each monomial.

    Every image is cached, negative generators included, as its own dict
    of its own tuples, and every product is straightened by ``normal_order``.
    """

    def act_generator(self, alpha, level, word):
        key = (alpha, level, word)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = {}
        if not word:
            if alpha < 0:
                out = {((-alpha, level),): self.scale}
            elif alpha == 0 and self._values[level]:
                out = {(): self._values[level]}
        elif alpha < 0:
            accumulate(out, normal_order(((-alpha, level),) + word, self.n).items(), self.scale)
        else:
            head, rest = word[0], word[1:]
            for w, c in self.act_generator(alpha, level, rest).items():
                accumulate(out, normal_order((head,) + w, self.n).items(), c)
            fa, fl = head
            terms, central_coeff = bracket_terms(self.variant, BasisKey(alpha, level), BasisKey(-fa, fl))
            for bkey, bc in terms.items():
                accumulate(out, self.act_generator(bkey.alpha, bkey.level, rest).items(), bc)
            if central_coeff:
                accumulate(out, ((rest, central_coeff * self._c),))
        self._cache[key] = out
        return out


# zeros allowed: a zero lambda_i gives zero images and lambda_n = 0 gives singular vectors
values = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7)))


@st.composite
def cases(draw):
    n = draw(st.sampled_from((0, 1, 2)))
    lam = WeightFunctional(tuple(draw(values) for _ in range(n + 1)), draw(values))
    factors = st.tuples(st.integers(1, 3), st.integers(0, n))
    words = st.lists(factors, max_size=6).filter(lambda w: sum(a for a, _ in w) <= 6)
    # canonical order is nonincreasing (alpha, level)
    words = words.map(lambda w: tuple(sorted(w, reverse=True)))
    probes = st.lists(st.tuples(st.integers(-3, 7), st.integers(0, n), words), min_size=1, max_size=8)
    return n, lam, draw(probes)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(cases())
def test_act_generator_matches_the_old_straightening(case):
    n, lam, probes = case
    action, old = VermaAction(lam, n), _StraightenEveryProduct(lam, n)
    for alpha, level, word in probes:
        # the same pairs in the same order, so every report built on them is byte-identical
        assert list(action.act_generator(alpha, level, word).items()) == list(old.act_generator(alpha, level, word).items())

    # one table per generator, (alpha, level) -> {word: image}
    assert all(alpha >= 0 for alpha, _ in action._cache)
    images = [(word, image) for table in action._cache.values() for word, image in table.items()]
    shared = {}
    for word, image in images:
        for monomial in (word, *image):
            assert shared.setdefault(monomial, monomial) is monomial
    assert all(action._monomials[m] is m for m in shared)

    empty = action.act_generator(1, 0, ())
    with pytest.raises(TypeError):
        empty[()] = 1
    assert not action.act_generator(1, 0, ()) and all(image or image is empty for _, image in images)
