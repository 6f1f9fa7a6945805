"""Truncated highest-weight modules: bases, straightening, actions, kernels."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from blocklie import linalg, verma
from blocklie.algebra import BasisKey, bracket_terms, quotient
from blocklie.linalg import _eliminate
from blocklie.modules import check_module_axioms
from blocklie.rationals import accumulate
from blocklie.verma import (
    VermaAction,
    WeightFunctional,
    normal_order,
    partition_dimensions,
    positive_generators,
    quasifinite_report,
    singular_vectors,
    validate_positive_generators,
    verma_basis,
    verma_window,
)
from test_linalg import _reference_reduction

F = Fraction


def random_weight(rng, n, zero_c=False):
    values = tuple(F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(n + 1))
    c = F(0) if zero_c else F(rng.randint(-6, 6), rng.randint(1, 3))
    return WeightFunctional(values, c)


def test_basis_counts_against_generating_function():
    for n in range(4):
        oracle = partition_dimensions(n, 8)
        assert [len(verma_basis(n, d)) for d in range(9)] == oracle


def test_basis_small_cases():
    assert verma_basis(1, 0) == [()]
    assert verma_basis(1, 1) == [((1, 0),), ((1, 1),)]
    assert len(verma_basis(1, 2)) == 5
    assert len(verma_basis(1, 3)) == 10


def test_basis_is_canonical():
    for word in verma_basis(2, 5):
        assert all(word[t] >= word[t + 1] for t in range(len(word) - 1))


def test_normal_order_swap_correction():
    # L_{-1,0} L_{-1,1} v = L_{-1,1} L_{-1,0} v + L_{-2,1} v
    assert normal_order(((1, 0), (1, 1)), 1) == {((1, 1), (1, 0)): F(1), ((2, 1),): F(1)}
    # already canonical words pass through, including repeated factors
    assert normal_order(((1, 1), (1, 0)), 1) == {((1, 1), (1, 0)): F(1)}
    assert normal_order(((1, 0), (1, 0)), 1) == {((1, 0), (1, 0)): F(1)}


def _reference_normal_order(word, n):
    """``normal_order`` frozen from before it read ``bracket_terms``: the bracket correction written out."""
    for alpha, level in word:
        if alpha < 1 or not (0 <= level <= n):
            raise ValueError(f"factor ({alpha},{level}) is not a negative generator of Q:0:{n}")
    pending = {tuple(word): Fraction(1)}
    done = {}
    while pending:
        w, coeff = pending.popitem()
        spot = next((t for t in range(len(w) - 1) if w[t] < w[t + 1]), None)
        if spot is None:
            accumulate(done, ((w, coeff),))
            continue
        swapped = w[:spot] + (w[spot + 1], w[spot]) + w[spot + 2 :]
        accumulate(pending, ((swapped, coeff),))
        (a1, l1), (a2, l2) = w[spot], w[spot + 1]
        # [L_{-a1,l1}, L_{-a2,l2}] = ((l2+1) a1 - (l1+1) a2) L_{-(a1+a2), l1+l2}
        cbr = (l2 + 1) * a1 - (l1 + 1) * a2
        if cbr and l1 + l2 <= n:
            corrected = w[:spot] + ((a1 + a2, l1 + l2),) + w[spot + 2 :]
            accumulate(pending, ((corrected, coeff),), cbr)
    return done


def test_normal_order_matches_reference_on_every_short_word():
    for n in range(4):
        factors = [(alpha, level) for alpha in (1, 2) for level in range(n + 1)]
        for length in range(4):
            for word in itertools.product(factors, repeat=length):
                got = normal_order(word, n)
                assert list(got.items()) == list(_reference_normal_order(word, n).items())


def test_normal_order_is_confluent():
    rng = random.Random(51)
    lam = random_weight(rng, 2)
    action = VermaAction(lam, 2)
    for _ in range(30):
        word = tuple((rng.randint(1, 3), rng.randint(0, 2)) for _ in range(rng.randint(2, 4)))
        straightened = normal_order(word, 2)
        shuffled = list(word)
        rng.shuffle(shuffled)
        # a shuffled word is a different element; instead re-straighten the
        # straightened result and check idempotence plus depth preservation
        again = {}
        for w, c in straightened.items():
            for w2, c2 in normal_order(w, 2).items():
                again[w2] = again.get(w2, F(0)) + c * c2
        assert again == straightened
        depth = sum(a for a, _ in word)
        assert all(sum(a for a, _ in w) == depth for w in straightened)


def test_weight_functional_values():
    lam = WeightFunctional((F(3, 7), F(0)), F(1, 3))
    assert lam == WeightFunctional((F(3, 7), F(0)), F(1, 3)) != WeightFunctional((F(3, 7), F(0)), F(0))
    assert {lam: 1}[WeightFunctional((F(3, 7), F(0)), F(1, 3))] == 1
    assert (lam.n, lam[0], lam[1]) == (1, F(3, 7), F(0))
    assert repr(lam) == "WeightFunctional(values=(Fraction(3, 7), Fraction(0, 1)), c=Fraction(1, 3))"
    assert WeightFunctional.from_json(lam.to_json()) == lam
    for name in ("values", "c"):
        with pytest.raises(AttributeError):
            setattr(lam, name, F(0))
        with pytest.raises(AttributeError):
            delattr(lam, name)


def test_action_examples():
    lam = WeightFunctional((F(3, 7), F(2, 5)), F(1, 3))
    action = VermaAction(lam, 1)
    # act_generator returns scale x the image, on ints; scale is lcm(7, 5, 3)
    assert action.scale == 105
    assert action.act_generator(1, 0, ((1, 0),)) == {(): -2 * lam[0] * 105}
    assert action.act_generator(0, 1, ()) == {(): lam[1] * 105}
    vec = {((1, 1), (1, 0)): F(2)}
    assert action.act("C", vec) == {((1, 1), (1, 0)): 2 * lam.c}
    assert VermaAction(lam, 1).act(BasisKey(0, 0), {(): F(1)}) == {(): lam[0]}


@pytest.mark.parametrize(
    "alpha, level, word",
    [(-1, 5, ()), (-1, 5, ((1, 0),)), (1, 5, ((1, 0),)), (1, 5, ()), (0, 5, ()), (0, -1, ()), (-2, -1, ((1, 1),))],
)
def test_generator_level_outside_the_band_is_refused(alpha, level, word):
    # before, at n = 1: ((1, 5),), a ValueError naming the factor, {} and IndexError for the first probes
    action = VermaAction(WeightFunctional((F(1, 2), F(0)), F(1, 3)), 1)
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(f"L_{{{alpha},{level}}} has a level outside the band 0..1 of Q:0:1")):
            action.act_generator(alpha, level, word)
    with pytest.raises(ValueError, match="outside the band"):
        action.act(BasisKey(alpha, level), {word: F(1)})
    assert not action._cache


def test_action_respects_brackets():
    rng = random.Random(52)
    for n in (1, 2):
        lam = random_weight(rng, n)
        action = VermaAction(lam, n)
        variant = quotient(0, n)
        basis = verma_basis(n, 4)
        for _ in range(25):
            vec = {basis[rng.randrange(len(basis))]: F(rng.randint(-4, 4), rng.randint(1, 3))}
            x = BasisKey(rng.randint(-2, 2), rng.randint(0, n))
            y = BasisKey(rng.randint(-2, 2), rng.randint(0, n))
            xy = action.act(x, action.act(y, vec))
            yx = action.act(y, action.act(x, vec))
            lhs = {w: xy.get(w, F(0)) - yx.get(w, F(0)) for w in set(xy) | set(yx)}
            lhs = {w: c for w, c in lhs.items() if c}
            terms, central_coeff = bracket_terms(variant, x, y)
            rhs = {}
            for z, coeff in terms.items():
                for w, c in action.act(z, vec).items():
                    rhs[w] = rhs.get(w, F(0)) + coeff * c
            if central_coeff:
                for w, c in vec.items():
                    rhs[w] = rhs.get(w, F(0)) + central_coeff * lam.c * c
            rhs = {w: c for w, c in rhs.items() if c}
            assert lhs == rhs


def test_depth_shift_is_degree():
    rng = random.Random(53)
    lam = random_weight(rng, 1)
    action = VermaAction(lam, 1)
    for word in verma_basis(1, 3):
        for alpha in range(-2, 3):
            image = action.act_generator(alpha, rng.randint(0, 1), word)
            for w in image:
                assert sum(a for a, _ in w) == 3 - alpha


def test_singular_vectors_generic_and_degenerate():
    rng = random.Random(54)
    lam = random_weight(rng, 1)
    assert singular_vectors(lam, 1, 0) == [{(): F(1)}]
    for depth in (1, 2, 3):
        assert singular_vectors(lam, 1, depth) == []
    trivial = WeightFunctional((F(0), F(0)), F(0))
    kernel = singular_vectors(trivial, 1, 1)
    assert len(kernel) == 2  # every depth-1 vector is annihilated


def test_singular_vectors_check_the_weight_table_at_depth_zero():
    # a 2-level table over Q:0:2 was refused from depth 1 but returned [{(): 1}] at depth 0
    lam = WeightFunctional((F(1, 2), F(0)), F(0))
    for depth in (0, 1):
        with pytest.raises(ValueError, match=re.escape("weight table has 2 levels, expected 3")):
            singular_vectors(lam, 2, depth)


def test_singular_depths_of_the_zero_weight_are_the_pentagonal_numbers():
    # at n = 0, lambda = 0, c = 0 the singular depths are the generalized
    # pentagonal numbers k(3k -+ 1)/2, an oracle independent of the straightening
    lam = WeightFunctional((F(0),), F(0))
    pentagonal = sorted(k * (3 * k + sign) // 2 for k in (1, 2, 3) for sign in (-1, 1))
    assert [d for d in range(1, 17) if singular_vectors(lam, 0, d)] == pentagonal == [1, 2, 5, 7, 12, 15]


def test_a_kernel_vector_that_is_not_singular_is_an_error(monkeypatch):
    real = linalg.row_reduce

    def with_a_stray_vector(m):
        # 1/3 L_{-1,0}^2 v + 2/5 L_{-2,1} v joins the true kernel, L_{-1,1}^2 v
        red = real(m)
        stray = {0: F(1, 3), 4: F(2, 5)}
        return red._replace(kernel=red.kernel + [stray])

    monkeypatch.setattr(verma.linalg, "row_reduce", with_a_stray_vector)
    lam = WeightFunctional((F(1, 2), F(0)), F(1, 3))
    assert verma_basis(1, 2) == [((1, 0), (1, 0)), ((1, 1), (1, 0)), ((1, 1), (1, 1)), ((2, 0),), ((2, 1),)]
    with pytest.raises(RuntimeError, match=re.escape("depth-2 kernel vector not annihilated by L_{1,0}")):
        singular_vectors(lam, 1, 2)


def test_positive_generator_set():
    assert positive_generators(1) == [BasisKey(1, 0), BasisKey(1, 1), BasisKey(2, 0)]
    for n in (0, 1, 2):
        assert validate_positive_generators(n, 6)


def test_quasifinite_report():
    report = quasifinite_report(1, 6)
    assert report["dimensions"] == [1, 2, 5, 10, 20, 36, 65]
    assert report["match"] is True
    assert quasifinite_report(0, 4)["dimensions"] == [1, 1, 2, 3, 5]
    assert quasifinite_report(2, 0)["dimensions"] == [1]


def test_verma_window_is_a_module():
    lam = WeightFunctional((F(3, 7), F(2, 5)), F(1, 3))
    window = verma_window(lam, 1, 4)
    assert [window.dims[k] for k in range(-4, 3)] == [20, 10, 5, 2, 1, 0, 0]
    assert check_module_axioms(window, 2) == []
    assert window.weight(0) == lam[0]


def test_weight_table_validation():
    with pytest.raises(ValueError):
        WeightFunctional.from_json({"lambda": []})
    lam = WeightFunctional.from_json({"lambda": ["1/2", "3"], "c": "-2/7"})
    assert lam[1] == F(3) and lam.c == F(-2, 7)
    assert WeightFunctional.from_json(lam.to_json()) == lam
    with pytest.raises(ValueError):
        VermaAction(lam, 2)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"lambda": ["1/2", "2/3"], "c": "0", "junk": 5}, "unknown keys ['junk']"),
        ({"lambda": "12", "c": "0"}, "'lambda' must be a list, got '12'"),
        ({"lambda": {"1": 0, "2": 0}}, "'lambda' must be a list"),
        (["1/2", "2/3"], "malformed weight functional JSON"),
    ],
    ids=["unknown-key", "string", "object", "top-level-list"],
)
def test_weight_table_document_is_strict(data, message):
    # a string or object lambda was read one character or one key per level
    with pytest.raises(ValueError) as info:
        WeightFunctional.from_json(data)
    assert message in str(info.value)


class _ReferenceVermaAction:
    """``VermaAction`` frozen from before its images were scaled to ints: every coefficient a Fraction."""

    def __init__(self, lam, n):
        self.lam, self.n, self.variant = lam, n, quotient(0, n)
        self._cache = {}

    def act_generator(self, alpha, level, word):
        key = (alpha, level, word)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = {}
        if not word:
            if alpha > 0:
                pass
            elif alpha == 0:
                out = {(): self.lam[level]}
            else:
                out = {((-alpha, level),): Fraction(1)}
        elif alpha < 0:
            accumulate(out, _reference_normal_order(((-alpha, level),) + word, self.n).items())
        else:
            head, rest = word[0], word[1:]
            through = self.act_generator(alpha, level, rest)
            for w, c in through.items():
                accumulate(out, _reference_normal_order((head,) + w, self.n).items(), c)
            fa, fl = head
            terms, central_coeff = bracket_terms(self.variant, BasisKey(alpha, level), BasisKey(-fa, fl))
            for bkey, bc in terms.items():
                accumulate(out, self.act_generator(bkey.alpha, bkey.level, rest).items(), bc)
            if central_coeff:
                accumulate(out, ((rest, central_coeff * self.lam.c),))
        self._cache[key] = out
        return out


def _reference_singular_vectors(lam, n, depth):
    """``singular_vectors`` on the frozen Fraction action, every row eliminated over Q by ``Echelon``."""
    action = _ReferenceVermaAction(lam, n)
    basis = verma_basis(n, depth)
    rows = []
    for g in positive_generators(n):
        target = verma_basis(n, depth - g.alpha) if depth - g.alpha >= 0 else []
        row_index = {w: i for i, w in enumerate(target)}
        block = [{} for _ in target]
        for col, word in enumerate(basis):
            for w, c in action.act_generator(g.alpha, g.level, word).items():
                block[row_index[w]][col] = c
        rows += block
    kernel = _reference_reduction(_eliminate(rows), len(rows), len(basis)).kernel
    return [{basis[i]: c for i, c in vec.items()} for vec in kernel]


def _pool_weight(rng, n, zero_top):
    def value():
        return F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.choice((2, 3, 5, 7)))

    values = [value() for _ in range(n + 1)]
    if zero_top:
        values[n] = F(0)
    return WeightFunctional(tuple(values), value())


@pytest.mark.parametrize("n, depth_cap", [(0, 6), (1, 6), (2, 6)])
def test_int_action_and_singular_vectors_match_the_fraction_reference(n, depth_cap):
    rng = random.Random(60 + n)
    for zero_top in (True, False):
        lam = _pool_weight(rng, n, zero_top)
        action, reference = VermaAction(lam, n), _ReferenceVermaAction(lam, n)
        # the images, one scale x image at a time, then the kernels built from them
        for depth in range(depth_cap + 1):
            for word in verma_basis(n, depth):
                for alpha in range(-2, depth + 1):
                    for level in range(n + 1):
                        scaled = action.act_generator(alpha, level, word)
                        assert all(type(c) is int and c for c in scaled.values())
                        want = {w: c for w, c in reference.act_generator(alpha, level, word).items() if c}
                        assert {w: F(c, action.scale) for w, c in scaled.items()} == want
        for depth in range(1, depth_cap + 1):
            got = singular_vectors(lam, n, depth)
            assert got == _reference_singular_vectors(lam, n, depth)
            if zero_top and n:
                # lambda_n = 0 makes L_{-1,n}^depth v singular
                assert got
