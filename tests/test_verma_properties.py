"""Property tests: ``verma_basis`` against brute force, ``VermaAction.act_generator`` against the straightening it
replaced, ``singular_vectors`` through depth D against the same call stopped at each lower depth, and the first
singular depths at n = 0 against the Kac table."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blocklie.algebra import BasisKey, bracket_terms, quotient  # noqa: E402
from blocklie.rationals import accumulate  # noqa: E402
from blocklie.verma import VermaAction, WeightFunctional, normal_order, singular_vectors, verma_basis  # noqa: E402


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
    bases = verma_basis(n, depth)
    assert len(bases) == depth + 1
    for d, basis in enumerate(bases):
        assert basis == sorted({tuple(sorted(w, reverse=True)) for w in _ordered_words(n, d)})
    # within one call each factor is one object, across every depth
    factors = {}
    for basis in bases:
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


@st.composite
def weights(draw):
    n = draw(st.sampled_from((0, 1, 2)))
    # a zero among the values, lambda_n = 0 above all, gives singular vectors
    entry = st.just(Fraction(0)) | values
    return n, WeightFunctional(tuple(draw(entry) for _ in range(n + 1)), draw(entry)), draw(st.integers(1, 6))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(weights())
@example((2, WeightFunctional((Fraction(5, 3), Fraction(1, 5), Fraction(0)), Fraction(3, 2)), 6))
@example((0, WeightFunctional((Fraction(0),), Fraction(0)), 6))
def test_one_action_for_every_depth_gives_the_per_depth_vectors(case):
    n, lam, depth = case
    found = singular_vectors(lam, n, depth)
    assert len(found) == depth + 1
    for d in range(depth + 1):
        shared, fresh = found[d], singular_vectors(lam, n, d)[d]
        # the same vectors with their pairs in the same order, so the report is byte-identical
        assert [list(v.items()) for v in shared] == [list(v.items()) for v in fresh]


def _kac_h(r, s, t):
    """h_{r,s}(t), the conformal weight of the Kac table at c_Vir = 13 - 6(t + 1/t)."""
    return ((r * r - 1) * t - 2 * (r * s - 1) + (s * s - 1) / t) / 4


_KAC_PAIRS = [(r, s) for r in range(1, 7) for s in range(1, 7) if r * s <= 6]
_NONZERO = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)


@st.composite
def kac_points(draw):
    """A rational t != 0 and a weight h, half the time on a curve h = h_{r,s}(t) with rs <= 6."""
    t = draw(_NONZERO)
    if draw(st.booleans()):
        r, s = draw(st.sampled_from(_KAC_PAIRS))
        return t, _kac_h(r, s, t)
    return t, draw(st.fractions(min_value=-6, max_value=6, max_denominator=8))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(kac_points())
@example((Fraction(2, 3), Fraction(5, 8)))
@example((Fraction(1), Fraction(0)))
def test_first_singular_depth_at_n0_is_the_least_kac_level(point):
    # in Q:0:0, E_a = -L_{a,0} spans a Virasoro algebra with c_Vir = 2c and h = -lambda_0, and by the Kac
    # determinant the first singular depth is the least rs <= 6 with h = h_{r,s}(t), none if there is none
    t, h = point
    c_vir = 13 - 6 * (t + 1 / t)
    found = singular_vectors(WeightFunctional((-h,), c_vir / 2), 0, 6)
    least = min((r * s for r, s in _KAC_PAIRS if _kac_h(r, s, t) == h), default=None)
    assert next((d for d in range(1, 7) if found[d]), None) == least
